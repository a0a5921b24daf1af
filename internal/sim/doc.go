// Package sim is the machine simulator that stands in for the paper's
// SimOS environment (§3.2): an event-driven, trace-driven model of a
// bus-based shared-memory multiprocessor. Each CPU has virtually indexed
// on-chip caches and a physically indexed external cache; the external
// caches are kept coherent by an invalidation protocol and share a
// finite-bandwidth split-transaction bus. Virtual-to-physical mappings
// come from the vm subsystem, so page mapping policy decides where pages
// land in the external caches — the mechanism the whole paper is about.
//
// Workloads reach the engine through one seam, Source: init regions
// plus steady-state phases of Regions, each Region a set of per-CPU
// reference streams (ProgramSource for an ir.Program, NewTraceSource
// for a recorded trace). Options describes the machine; a process's
// page placement (policy, CDPC hints, touch order, dynamic recoloring)
// lives in the ProcessOptions that carries its Source, and every run
// entry takes the processes it runs. Run runs one process on the full
// engine — parallel regions on all CPUs interleaved in global time
// order (a min-clock event loop), sequential and suppressed regions on
// the master while the slaves' idle time is charged to the matching
// overhead bucket, per-phase statistics weighted by phase occurrence
// counts, the paper's representative-execution-window method (§3.2).
// RunSampled is the phase-sampled mode for a program: one
// representative window per nest, clustered phases, extrapolated
// statistics. RunProcesses runs several processes' Regions under a
// space-sharing scheduler on one machine.
package sim
