// Package memory implements the physical frame allocator: free frames are
// kept in per-color pools so the virtual-memory subsystem can honor a
// policy's (or CDPC's) preferred color. Under memory pressure a request
// falls back to the richest other pool — the paper's "the operating
// system ... may not be able to honor the hints if the machine is under
// memory pressure" (§5, step 3).
//
// A pool holds its color's free frames implicitly, as the frames
// released back to it plus a cursor over the color's never-allocated
// frames, so it costs 40 bytes plus 8 per released frame however large
// the machine's memory is; a pool listing every free frame would cost
// 8 bytes per frame (64 KB on the default 8192-frame machine, of which
// a sampled job touches at most a few hundred frames). Frames come out
// in the same order either way.
package memory
