/**
 * @file
 * The coherence checker: golden oracle + invariants behind the
 * CoherenceObserver event stream.
 *
 * Attach one to a machine (Machine does it under --check / the
 * SCMP_CHECK environment variable) and every data reference is
 * cross-checked against a golden functional memory, every bus
 * transaction's post-condition is verified on its line, and the
 * full tag arrays are swept periodically (and at teardown) for the
 * SWMR / placement / LRU invariants. Any violation is a panic —
 * checked runs die loudly at the first incoherent event instead of
 * quietly corrupting a figure sweep.
 *
 * Cost model: per-access and per-transaction checks are O(1)-ish
 * (a few hash probes); the full walk is O(total cache lines) and
 * is amortized over walkInterval bus transactions, keeping checked
 * quick-config runs within ~2x of unchecked ones.
 */

#ifndef SCMP_CHECK_CHECKER_HH
#define SCMP_CHECK_CHECKER_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "check/invariant.hh"
#include "check/oracle.hh"
#include "mem/coherence_observer.hh"
#include "mem/scc.hh"
#include "sim/stats.hh"

namespace scmp::check
{

/** Checker tuning knobs. */
struct CheckerOptions
{
    /**
     * Run the full tag walk every this many bus transactions
     * (0 = after every transaction — exhaustive but slow). The
     * targeted per-transaction line check always runs.
     */
    std::uint64_t walkInterval = 4096;
};

/** True when the SCMP_CHECK environment variable requests checking. */
bool envCheckRequested();

/** walkInterval from SCMP_CHECK_WALK, or @p def when unset. */
std::uint64_t envWalkInterval(std::uint64_t def);

/** The observer implementation the memory system reports into. */
class CoherenceChecker : public CoherenceObserver
{
  public:
    /**
     * @param parent   Statistics parent (the machine's root).
     * @param caches   Every cache on the bus; caches[i]->snooperId()
     *                 must equal i.
     * @param protocol The machine's coherence protocol (drives the
     *                 write post-condition).
     * @param lineBytes Cache line size (shadow granularity).
     */
    CoherenceChecker(stats::Group *parent,
                     std::vector<const SharedClusterCache *> caches,
                     CoherenceProtocol protocol,
                     std::uint32_t lineBytes,
                     CheckerOptions options = {});

    /// @name CoherenceObserver interface.
    /// @{
    void onCpuAccessStart(CpuId cpu, int cacheIdx, RefType type,
                          Addr addr) override;
    void onCpuAccessEnd(CpuId cpu, int cacheIdx, RefType type,
                        Addr addr) override;
    void onEvict(ClusterId cache, Addr lineAddr, bool dirty) override;
    void onFill(ClusterId cache, Addr lineAddr,
                CoherenceState state) override;
    void onDirtyFlush(ClusterId cache, Addr lineAddr) override;
    void onInvalidate(ClusterId cache, Addr lineAddr) override;
    void onUpdateAbsorbed(ClusterId cache, Addr lineAddr) override;
    void onBusTransaction(ClusterId source, BusOp op, Addr lineAddr,
                          Cycle grant) override;
    /// @}

    /// @name Store-buffer events (--consistency=weak).
    ///
    /// The order-tolerant half of the oracle. A buffered store gets
    /// its sequence number at RETIREMENT (program order per CPU)
    /// but only commits to golden memory when its drain completes —
    /// so commit order across processors is drain order, and golden
    /// memory tracks exactly what an unfenced remote load may
    /// legally observe. The checker accepts any such execution and
    /// rejects everything else: drains must leave each buffer in
    /// FIFO program order, read bypass must forward a genuinely
    /// pending store of the same word, and a completed fence must
    /// leave the processor's buffer empty (fence-ordered
    /// visibility). Cache-served loads keep the EXACT golden check:
    /// weak ordering relaxes when a store commits, never what a
    /// load may return once it has.
    /// @{
    std::uint64_t onStoreBuffered(CpuId cpu, int cacheIdx,
                                  Addr addr) override;
    void onStoreDrainStart(CpuId cpu, int cacheIdx, Addr addr,
                           std::uint64_t seq) override;
    void onStoreDrainEnd(CpuId cpu, int cacheIdx,
                         Addr addr) override;
    void onLoadForwarded(CpuId cpu, Addr addr) override;
    void onFence(CpuId cpu) override;
    /// @}

    /// @name Transactional-memory events (--tm={eager,lazy}).
    ///
    /// The atomicity/isolation half of the oracle. Each CPU's open
    /// transaction is mirrored: its verified reads build a read-set
    /// snapshot (word -> observed write seq), its speculative
    /// stores build a write set that must NOT touch golden memory,
    /// and commit splits into a validation point (every read-set
    /// word must still match golden memory — isolation) followed by
    /// publication (every speculative word committed exactly once,
    /// through the normal bracketed-write checks — all-at-once
    /// atomicity). An abort must arrive before publication started,
    /// so aborted writes structurally never reach golden memory. A
    /// transactional CPU writing outside its publication window, or
    /// a commit that drops a speculative word, dies here.
    /// @{
    void onTmBegin(CpuId cpu) override;
    void onTmStore(CpuId cpu, Addr wordAddr) override;
    void onTmCommitStart(CpuId cpu) override;
    void onTmCommitEnd(CpuId cpu) override;
    void onTmAbort(CpuId cpu) override;
    /// @}

    /** Sweep every tag array now; panics on violation. */
    void fullWalk();

    /** Total individual checks performed so far. */
    std::uint64_t checksPerformed() const;

    /**
     * The write sequence number the most recent verified load
     * observed (cache-served or forwarded; 0 = never-written).
     * Litmus tests read this to pin which outcomes a consistency
     * model admits.
     */
    Value lastLoadValue() const { return _lastLoadValue; }

    /** Stores retired but not yet drained for @p cpu. */
    std::size_t pendingStores(CpuId cpu) const;

    const MemoryOracle &oracle() const { return _oracle; }
    const CheckerOptions &options() const { return _options; }

  private:
    /** The data reference currently inside the memory system. */
    struct Pending
    {
        bool active = false;
        CpuId cpu = -1;
        int cache = -1;
        RefType type = RefType::Read;
        Addr addr = 0;
        Value seq = 0;  //!< value a pending write will commit
    };

    /** A store retired into a buffer, not yet drained. */
    struct BufferedStore
    {
        Addr word = 0;
        int cache = -1;
        Value seq = 0;
    };

    /** The per-CPU FIFO mirror of @p cpu's store buffer. */
    std::deque<BufferedStore> &bufferOf(CpuId cpu);

    /** The oracle's mirror of one CPU's open transaction. */
    struct TmMirror
    {
        enum class Phase { Idle, Active, Publishing };
        Phase phase = Phase::Idle;
        /** Read-set snapshot: word -> write seq observed first. */
        std::unordered_map<Addr, Value> readSet;
        /** Speculative write set: word -> published yet? */
        std::unordered_map<Addr, bool> writeSet;
    };

    /** The transaction mirror of @p cpu, grown on first use. */
    TmMirror &tmMirrorOf(CpuId cpu);

    /** Read-path TM bookkeeping after the golden check passed. */
    void tmOnVerifiedRead(CpuId cpu, Addr addr, Value got);

    /** Write-path TM bookkeeping after the commit was verified. */
    void tmOnVerifiedWrite(CpuId cpu, Addr addr);

    std::vector<const SharedClusterCache *> _caches;
    CoherenceProtocol _protocol;
    CheckerOptions _options;
    MemoryOracle _oracle;
    Pending _pending;
    Value _writeSeq = 0;
    Value _lastLoadValue = 0;
    std::uint64_t _transactions = 0;

    /** Indexed by CpuId, grown on first use. */
    std::vector<std::deque<BufferedStore>> _buffered;

    /** Indexed by CpuId, grown on first use. */
    std::vector<TmMirror> _tmMirrors;

    stats::Group _group;

  public:
    /// @name Statistics (counters of checks performed).
    /// @{
    stats::Scalar loadsChecked;   //!< loads verified against golden
    stats::Scalar storesChecked;  //!< write commits verified
    stats::Scalar lineChecks;     //!< post-transaction line checks
    stats::Scalar fullWalks;      //!< whole-tag-array sweeps
    stats::Scalar linesWalked;    //!< lines visited by the sweeps
    stats::Scalar eventsObserved; //!< protocol events mirrored
    stats::Scalar forwardsChecked; //!< read bypasses verified
    stats::Scalar fencesChecked;  //!< fences verified empty
    stats::Scalar tmCommitsChecked; //!< commit validations run
    stats::Scalar tmReadSetChecks; //!< read-set words validated
    stats::Scalar tmPublishesChecked; //!< publication writes matched
    stats::Scalar tmAbortsChecked; //!< aborts verified unpublished
    stats::Scalar partitionChecks; //!< isolation placements checked
    stats::Scalar bankChecks;     //!< SCC line banks checked
    /// @}
};

} // namespace scmp::check

#endif // SCMP_CHECK_CHECKER_HH
