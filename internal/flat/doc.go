// Package flat provides Map, the open-addressed uint64→uint64 hash table
// behind the simulator's per-reference lookup structures: the TLB index
// and the page table and its reverse map. It stores keys and values
// inline in one slice, probes linearly, deletes by backward shift (so no
// tombstones accumulate) and grows only when an insert would push the
// load past 3/4, so a table whose population has stopped growing
// allocates nothing.
//
// It also provides LRU, the exact least-recently-used set behind the
// shadow cache. Its index probes the same way but holds 4-byte slot
// numbers and compares keys in the slots, so it costs a quarter of a
// Map's bytes per entry.
package flat
