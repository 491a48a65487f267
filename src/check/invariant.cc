#include "invariant.hh"

#include <unordered_map>

#include "check/oracle.hh"
#include "sim/logging.hh"

namespace scmp::check
{

namespace
{

/** Global per-line presence summary across every cache. */
struct LinePresence
{
    int present = 0;
    int modified = 0;
    int firstHolder = -1;
};

} // namespace

WalkStats
walkTagInvariants(
    const std::vector<const SharedClusterCache *> &caches,
    const MemoryOracle *oracle)
{
    WalkStats stats;
    std::unordered_map<Addr, LinePresence> global;

    for (std::size_t ci = 0; ci < caches.size(); ++ci) {
        const TagArray &tags = caches[ci]->tags();
        const std::uint32_t assoc = tags.assoc();
        const std::uint64_t stampCap = tags.lruStampCounter();

        // Set-local scratch, reset at each set boundary. forEachLine
        // iterates set-major (way-minor), so a flat index recovers
        // the geometry.
        std::vector<Addr> setTags;
        std::vector<std::uint64_t> setStamps;
        std::uint64_t idx = 0;

        tags.forEachLine([&](const CacheLine &line) {
            std::uint64_t set = idx / assoc;
            if (idx % assoc == 0) {
                setTags.clear();
                setStamps.clear();
            }
            ++idx;
            ++stats.linesWalked;
            if (!line.valid()) {
                // A fill's MSHR lives in its line; one left behind
                // on an invalid way would merge or retire a later
                // tenant's references against a stale ready cycle.
                panic_if(line.pending, "invariant: cache ", ci,
                         " set ", set,
                         " has an invalid line carrying a pending "
                         "fill");
                return;
            }
            ++stats.validLines;

            ++stats.bankChecks;
            panic_if((BankId)line.bank != caches[ci]->bankOf(line.tag),
                     "invariant: cache ", ci, " line 0x", std::hex,
                     line.tag, std::dec, " is served by bank ",
                     line.bank, " but interleaves to bank ",
                     caches[ci]->bankOf(line.tag));

            panic_if(tags.lineAddr(line.tag) != line.tag,
                     "invariant: cache ", ci,
                     " holds a misaligned tag 0x", std::hex,
                     line.tag);
            std::uint32_t way = (std::uint32_t)((idx - 1) % assoc);
            if (!tags.isolated()) {
                panic_if(tags.setIndex(line.tag) != set,
                         "invariant: cache ", ci, " line 0x",
                         std::hex, line.tag, std::dec,
                         " stored in set ", set,
                         " but indexes to set ",
                         tags.setIndex(line.tag));
            } else {
                // The partition invariant: the line must sit where
                // its recorded security domain's policy placed it —
                // never in another domain's ways or sets.
                ++stats.partitionChecks;
                panic_if(!tags.placementValid(line, set, way),
                         "invariant: cache ", ci, " line 0x",
                         std::hex, line.tag, std::dec,
                         " of security domain ", line.domain,
                         " stored in set ", set, " way ", way,
                         " — the isolation partition is violated");
            }
            panic_if(line.lruStamp > stampCap,
                     "invariant: cache ", ci, " line 0x", std::hex,
                     line.tag, std::dec, " LRU stamp ",
                     line.lruStamp,
                     " exceeds the array's counter ", stampCap);
            for (Addr seen : setTags) {
                panic_if(seen == line.tag,
                         "invariant: cache ", ci,
                         " holds line 0x", std::hex, line.tag,
                         std::dec, " twice in set ", set);
            }
            for (std::uint64_t stamp : setStamps) {
                panic_if(stamp == line.lruStamp,
                         "invariant: cache ", ci, " set ", set,
                         " has two lines with LRU stamp ",
                         line.lruStamp,
                         " — the LRU stack is ill-formed");
            }
            setTags.push_back(line.tag);
            setStamps.push_back(line.lruStamp);

            auto &presence = global[line.tag];
            ++presence.present;
            if (presence.firstHolder < 0)
                presence.firstHolder = (int)ci;
            if (line.state == CoherenceState::Modified)
                ++presence.modified;

            if (oracle) {
                panic_if(!oracle->hasCopy((int)ci, line.tag),
                         "invariant: cache ", ci,
                         " holds line 0x", std::hex, line.tag,
                         std::dec,
                         " with no shadow copy — the oracle "
                         "missed a fill");
                panic_if(line.state == CoherenceState::Shared &&
                             !oracle->copyMatchesMemory((int)ci,
                                                        line.tag),
                         "invariant: cache ", ci,
                         " holds line 0x", std::hex, line.tag,
                         std::dec,
                         " Shared but its data disagrees with "
                         "memory — Shared copies must be clean");
            }
        });

        if (oracle) {
            panic_if(oracle->copyCount((int)ci) !=
                         tags.validLines(),
                     "invariant: cache ", ci, " holds ",
                     tags.validLines(),
                     " valid lines but the oracle shadows ",
                     oracle->copyCount((int)ci),
                     " — a fill or eviction went unobserved");
        }
    }

    for (const auto &[line, presence] : global) {
        panic_if(presence.modified > 1,
                 "invariant: line 0x", std::hex, line, std::dec,
                 " is Modified in ", presence.modified,
                 " caches — single-writer violated");
        panic_if(presence.modified == 1 && presence.present > 1,
                 "invariant: line 0x", std::hex, line, std::dec,
                 " is Modified in cache ", presence.firstHolder,
                 " yet present in ", presence.present,
                 " caches — Modified must be the only copy");
    }
    return stats;
}

void
checkLineAfterTransaction(
    const std::vector<const SharedClusterCache *> &caches,
    ClusterId source, BusOp op, Addr lineAddr)
{
    int present = 0;
    int modified = 0;
    for (std::size_t ci = 0; ci < caches.size(); ++ci) {
        CoherenceState state = caches[ci]->stateOf(lineAddr);
        bool remote = (ClusterId)ci != source;
        if (state != CoherenceState::Invalid)
            ++present;
        if (state == CoherenceState::Modified)
            ++modified;

        switch (op) {
          case BusOp::Read:
            panic_if(remote && state == CoherenceState::Modified,
                     "coherence: cache ", ci,
                     " still Modified on line 0x", std::hex,
                     lineAddr, std::dec, " after a BusRd from ",
                     source, " — missing downgrade");
            break;
          case BusOp::ReadExcl:
          case BusOp::Upgrade:
            panic_if(remote && state != CoherenceState::Invalid,
                     "coherence: cache ", ci, " still holds line 0x",
                     std::hex, lineAddr, std::dec, " ",
                     coherenceStateName(state), " after a ",
                     busOpName(op), " from ", source,
                     " — missing invalidation");
            panic_if(!remote && op == BusOp::Upgrade &&
                         state == CoherenceState::Invalid,
                     "coherence: cache ", ci,
                     " issued an Upgrade for line 0x", std::hex,
                     lineAddr, std::dec, " it does not hold");
            break;
          case BusOp::Update:
          case BusOp::WriteBack:
            break;
        }
    }
    panic_if(modified > 1, "coherence: line 0x", std::hex, lineAddr,
             std::dec, " Modified in ", modified,
             " caches after a ", busOpName(op));
    panic_if(modified == 1 && present > 1,
             "coherence: line 0x", std::hex, lineAddr, std::dec,
             " has a Modified copy alongside ", present - 1,
             " other copies after a ", busOpName(op));
}

} // namespace scmp::check
