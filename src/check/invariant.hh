/**
 * @file
 * Structural coherence invariants over the SCC tag arrays.
 *
 * Two granularities, both fatal (panic) on violation:
 *
 *  - checkLineAfterTransaction: the targeted post-condition of one
 *    bus transaction on its own line — cheap enough to run after
 *    EVERY transaction (a handful of probes).
 *
 *  - walkTagInvariants: the full sweep of every line of every tag
 *    array — SWMR (at most one Modified copy system-wide, and a
 *    Modified copy is the only copy), tag/set placement, LRU stamp
 *    well-formedness, each line's serving bank and pending-fill
 *    marker (the SCC's per-line MSHR), and optional cross-checks
 *    against the golden oracle's shadow copies. Run periodically
 *    and at teardown.
 *
 * In the paper's terms: SWMR is exactly the write-invalidate
 * guarantee the SCC design leans on — a write must kill every
 * remote cluster's copy before it retires, otherwise a re-reading
 * cluster returns stale data and every sharing-behaviour figure
 * (invalidations vs cluster width, miss-rate vs SCC size) silently
 * measures a broken machine.
 */

#ifndef SCMP_CHECK_INVARIANT_HH
#define SCMP_CHECK_INVARIANT_HH

#include <cstdint>
#include <vector>

#include "mem/scc.hh"

namespace scmp::check
{

class MemoryOracle;

/** Counters describing one full tag walk. */
struct WalkStats
{
    std::uint64_t linesWalked = 0;  //!< every way of every set
    std::uint64_t validLines = 0;   //!< lines holding a block

    /**
     * Valid lines whose placement was checked against an isolation
     * policy (src/sec): a domain's line must never occupy another
     * domain's ways (waypart) or sets (color/rand). Zero when no
     * walked cache is isolated.
     */
    std::uint64_t partitionChecks = 0;

    /**
     * Valid lines whose recorded serving bank was checked against
     * the cache's line interleaving (bankOf(tag)). The SCC reads a
     * hit's bank from the line, so a stale bank would mis-time
     * every later hit without changing any hit/miss outcome.
     */
    std::uint64_t bankChecks = 0;
};

/**
 * Walk every tag array and panic on any violated invariant.
 *
 * @param caches Every cache on the bus; caches[i]->snooperId()
 *               must equal i.
 * @param oracle Optional golden oracle: each valid line must have
 *               a shadow copy (and vice versa, by count), and every
 *               Shared copy's data must match shadow main memory —
 *               the value-level "Shared means clean" invariant.
 */
WalkStats walkTagInvariants(
    const std::vector<const SharedClusterCache *> &caches,
    const MemoryOracle *oracle);

/**
 * Post-condition of one bus transaction on @p lineAddr:
 *  - Read: no remote cache may still hold the line Modified.
 *  - ReadExcl/Upgrade: no remote cache may hold the line at all.
 *  - Upgrade additionally requires the requester to hold the line
 *    (it was upgrading a hit).
 * Plus, for every op, line-local SWMR across all caches.
 */
void checkLineAfterTransaction(
    const std::vector<const SharedClusterCache *> &caches,
    ClusterId source, BusOp op, Addr lineAddr);

} // namespace scmp::check

#endif // SCMP_CHECK_INVARIANT_HH
