// Package sim exercises the cancelpoll analyzer: nest- and
// region-iterating loops reachable from Run* must reach an
// Options.Cancel poll.
package sim

import "fixcancel/internal/ir"

// Options carries the cancellation hook.
type Options struct {
	Cancel func() error
}

// Machine is the simulator.
type Machine struct {
	opts Options
	work int
}

// Region is a unit of simulation work that need not come from an ir
// nest; loops passing one qualify just like nest loops.
type Region interface {
	Size() int
}

// block is a concrete Region.
type block struct{ n int }

func (b block) Size() int { return b.n }

// drainRegion does per-region work without ever polling.
func (m *Machine) drainRegion(r Region) error {
	m.work += r.Size()
	return nil
}

// poll is the cancellation point.
func (m *Machine) poll() error {
	if m.opts.Cancel != nil {
		return m.opts.Cancel()
	}
	return nil
}

// runNest simulates one nest and polls.
func (m *Machine) runNest(n *ir.Nest) error {
	if err := m.poll(); err != nil {
		return err
	}
	m.work += n.Iterations
	return nil
}

// process does per-nest work without ever polling.
func (m *Machine) process(n *ir.Nest) error {
	m.work += n.Iterations
	return nil
}

// span is nest bookkeeping: no error result, no propagation path for a
// Cancel error, so loops calling it are exempt.
func span(n *ir.Nest, cpu int) (int, int) {
	return cpu, n.Iterations
}

// Run is the entry point the analyzer roots at.
func (m *Machine) Run(p *ir.Program) error {
	// Clean: runNest reaches the poll.
	for _, n := range p.Nests {
		if err := m.runNest(n); err != nil {
			return err
		}
	}
	for _, n := range p.Nests { // want "never reaches an Options.Cancel poll"
		if err := m.process(n); err != nil {
			return err
		}
	}
	// Bookkeeping: span cannot even return a Cancel error.
	total := 0
	for _, n := range p.Nests {
		lo, hi := span(n, 0)
		total += hi - lo
	}
	m.work += total
	//lint:allow cancelpoll (fixture: suppression covers the whole loop below)
	for _, n := range p.Nests {
		if err := m.process(n); err != nil {
			return err
		}
	}
	// Clean: polling inline in the loop body counts.
	for _, n := range p.Nests {
		if m.opts.Cancel != nil {
			if err := m.opts.Cancel(); err != nil {
				return err
			}
		}
		if err := m.process(n); err != nil {
			return err
		}
	}
	regions := []Region{block{1}, block{2}}
	for _, reg := range regions { // want "never reaches an Options.Cancel poll"
		if err := m.drainRegion(reg); err != nil {
			return err
		}
	}
	// A concrete type implementing Region counts too.
	for _, b := range []block{{3}} { // want "never reaches an Options.Cancel poll"
		if err := m.drainRegion(b); err != nil {
			return err
		}
	}
	// Clean: the same region loop with a poll.
	for _, reg := range regions {
		if err := m.poll(); err != nil {
			return err
		}
		if err := m.drainRegion(reg); err != nil {
			return err
		}
	}
	return nil
}

// helper is not reachable from any Run* entry point, so its unpolled
// loop is out of scope.
func (m *Machine) helper(p *ir.Program) error {
	for _, n := range p.Nests {
		if err := m.process(n); err != nil {
			return err
		}
	}
	return nil
}
