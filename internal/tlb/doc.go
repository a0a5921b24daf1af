// Package tlb models a per-CPU translation lookaside buffer with exact
// LRU replacement. Each entry is one record of vpn, physical page base
// and age stamp, so a hit translates without a page-table walk and
// touches only its own record, and a vpn-to-slot index makes every hit
// O(1); only a miss scans the entries for its LRU victim. TLB
// refills are charged as kernel time (the paper's kernel overhead is
// "primarily servicing TLB faults", §4.1), and software prefetches to
// unmapped pages are dropped rather than faulting (§6.2).
package tlb
