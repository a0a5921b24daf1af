// Package flat provides Map, the open-addressed uint64→uint64 hash table
// behind the simulator's per-reference lookup structures: the TLB index
// and the page table and its reverse map. It stores keys and values
// inline in one slice, probes linearly, deletes by backward shift (so no
// tombstones accumulate) and grows only when an insert would push the
// load past 3/4, so a table whose population has stopped growing
// allocates nothing.
//
// It also provides LRU, the exact least-recently-used set behind the
// shadow cache. Its index probes the same way but holds slot numbers
// and compares keys in the slots. It comes in two forms: WideLRU, with
// uint64 keys, 16-B slots and 4-B index entries, 24 B per resident key
// at a power-of-two capacity, and NarrowLRU, with uint32 keys and
// 16-bit links, for at most 65,534 keys: 8-B slots and 2-B index
// entries, 12 B per key. A Map costs 32 B per key at the same load.
package flat
