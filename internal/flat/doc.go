// Package flat provides Map, the open-addressed uint64→uint64 hash table
// behind the simulator's per-reference lookup structures: the TLB index,
// the page table and its reverse map, the coherence directory's line
// index and the shadow cache's index. It stores keys and values inline
// in one slice, probes linearly, deletes by backward shift (so no
// tombstones accumulate) and grows only when an insert would push the
// load past 3/4, so a table whose population has stopped growing
// allocates nothing.
package flat
