// Package coherence implements an invalidation-based (MESI-style)
// coherence directory over the last-level cache instances of the
// machine's topology, plus the word-granularity bookkeeping needed to
// classify coherence misses into true and false sharing following
// Dubois et al., the classification the paper's Figure 2 memory-system
// graph uses (§4.1).
//
// Directory nodes are cache units, not CPUs: on the default topology
// every CPU owns a private external cache (one node per CPU, the
// paper's machine), while a clustered or machine-shared LLC registers
// one node per instance and sharing within a cluster never touches the
// directory. The directory is the single source of truth for which
// units hold a line; the simulator mirrors its invalidation decisions
// into the per-unit cache models.
//
// Per line the directory keeps three node bitmasks (current holders,
// every node that ever held it, and the nodes whose copy was lost to
// another node's write) and, per 8-byte word, the node that last wrote
// it. A miss by a node that never held the line is cold, or true
// sharing when another node wrote the word; a miss after a write
// invalidation is true or false sharing by the same word test; a miss
// after the node's own eviction is a replacement. This state lives in
// fixed chunks of 2048 lines, each one allocation made when its first
// line is touched and never copied, so a directory's memory is the
// lines it touched, rounded up to one chunk.
//
// The bitmasks are the narrowest of 8, 16, 32 and 64 bits that hold the
// node count, one generic table per width. Almost no line is written by
// two nodes, so a line keeps its writers in its own state while it has
// one: the writer's node number plus one (0 for none) and a 16-bit mask
// of the words it wrote. A line's second writer, or a write of a word
// past 15 on lines wider than 128 B, spills its writers to a side row of
// one byte per word, which Forget frees. With the dirty owner and
// padding a line's state is 8 B on a machine of up to 8 nodes, 10 B up
// to 16, 16 B up to 32 and 32 B up to 64: 8 B per 128-B line on the
// default machines of up to 8 nodes, where a row of nibble writers cost
// 12 B, byte writers 20 B and 64-bit masks 48 B.
// Directory.AccessInto writes the outcome into the caller's Outcome, so
// the simulator's hot path copies no result, and costs the caller one
// call whatever the width; Access returns the outcome as a value.
package coherence
