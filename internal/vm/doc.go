// Package vm implements the simulated operating system's virtual-memory
// subsystem: per-application address spaces, the page-fault path, and the
// page mapping policies the paper compares — page coloring (IRIX-style),
// bin hopping (Digital UNIX-style), and the madvise-like hint interface
// CDPC uses (§2.1, §5.3). It also provides the "touch pages in a chosen
// order on top of bin hopping" emulation the paper used on Digital UNIX.
//
// An address space is the one record of the frames its process holds:
// its reverse map (frame -> vpn) serves cache-invalidation mirroring,
// process exit (ReleaseFrames returns them to the allocator, highest
// first) and the simulator's test of whether a victim line belongs to a
// live co-runner. Under isolation domains it also carries the process's
// color partition (Confine), folds every fault into it, and reports its
// exhaustion as a memory.PartitionExhaustedError.
package vm
