#include "checker.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace scmp::check
{

bool
envCheckRequested()
{
    const char *value = std::getenv("SCMP_CHECK");
    if (!value || !*value)
        return false;
    return !(value[0] == '0' && value[1] == '\0');
}

std::uint64_t
envWalkInterval(std::uint64_t def)
{
    const char *value = std::getenv("SCMP_CHECK_WALK");
    if (!value || !*value)
        return def;
    return std::strtoull(value, nullptr, 10);
}

CoherenceChecker::CoherenceChecker(
    stats::Group *parent,
    std::vector<const SharedClusterCache *> caches,
    CoherenceProtocol protocol, std::uint32_t lineBytes,
    CheckerOptions options)
    : _caches(std::move(caches)), _protocol(protocol),
      _options(options), _oracle((int)_caches.size(), lineBytes),
      _group(parent, "check"),
      loadsChecked(&_group, "loadsChecked",
                   "loads verified against golden memory"),
      storesChecked(&_group, "storesChecked",
                    "write commits verified"),
      lineChecks(&_group, "lineChecks",
                 "post-transaction line checks"),
      fullWalks(&_group, "fullWalks", "whole-tag-array sweeps"),
      linesWalked(&_group, "linesWalked",
                  "lines visited by the sweeps"),
      eventsObserved(&_group, "eventsObserved",
                     "protocol events mirrored"),
      forwardsChecked(&_group, "forwardsChecked",
                      "store-buffer read bypasses verified"),
      fencesChecked(&_group, "fencesChecked",
                    "fences verified to have drained"),
      tmCommitsChecked(&_group, "tmCommitsChecked",
                       "transaction commits validated"),
      tmReadSetChecks(&_group, "tmReadSetChecks",
                      "transactional read-set words validated"),
      tmPublishesChecked(&_group, "tmPublishesChecked",
                         "commit publication writes matched"),
      tmAbortsChecked(&_group, "tmAbortsChecked",
                      "transaction aborts verified unpublished"),
      partitionChecks(&_group, "partitionChecks",
                      "isolation partition placements checked"),
      bankChecks(&_group, "bankChecks",
                 "SCC line banks checked against the interleaving")
{
    for (std::size_t i = 0; i < _caches.size(); ++i) {
        panic_if(!_caches[i], "checker: null cache at index ", i);
        panic_if(_caches[i]->snooperId() != (ClusterId)i,
                 "checker: cache at index ", i, " has snooper id ",
                 _caches[i]->snooperId(),
                 " — bus source ids must equal cache indices");
    }
}

void
CoherenceChecker::onCpuAccessStart(CpuId cpu, int cacheIdx,
                                   RefType type, Addr addr)
{
    panic_if(_pending.active,
             "checker: cpu ", cpu, " started a reference while cpu ",
             _pending.cpu, "'s is still in flight — references must "
             "be serialized");
    panic_if(type == RefType::Ifetch,
             "checker: instruction fetches are not data references");
    _pending.active = true;
    _pending.cpu = cpu;
    _pending.cache = cacheIdx;
    _pending.type = type;
    _pending.addr = addr;
    _pending.seq = type == RefType::Write ? ++_writeSeq : 0;
}

void
CoherenceChecker::onCpuAccessEnd(CpuId cpu, int cacheIdx,
                                 RefType type, Addr addr)
{
    panic_if(!_pending.active || _pending.cpu != cpu ||
                 _pending.cache != cacheIdx ||
                 _pending.type != type || _pending.addr != addr,
             "checker: access end does not match the in-flight "
             "reference (cpu ", cpu, " addr 0x", std::hex, addr,
             ")");
    _pending.active = false;

    const SharedClusterCache *cache =
        _caches.at((std::size_t)cacheIdx);
    CoherenceState state = cache->stateOf(addr);
    panic_if(state == CoherenceState::Invalid,
             "checker: cpu ", cpu, " completed a ",
             refTypeName(type), " of 0x", std::hex, addr, std::dec,
             " but cache ", cacheIdx,
             " does not hold the line — the access was never "
             "serviced");

    if (type == RefType::Read) {
        Value got = _oracle.loadValue(cacheIdx, addr);
        Value want = _oracle.golden(addr);
        panic_if(got != want,
                 "ORACLE: stale load! cpu ", cpu, " read 0x",
                 std::hex, addr, std::dec, " from cache ", cacheIdx,
                 " and observed write #", got,
                 " but the newest committed write is #", want,
                 " — a coherence action was lost");
        _lastLoadValue = got;
        ++loadsChecked;
        tmOnVerifiedRead(cpu, addr, got);
        return;
    }

    // Write commit: the serving copy takes the new value. Under
    // write-invalidate the writer must have gained exclusivity;
    // write-update legitimately leaves the line Shared.
    panic_if(_protocol == CoherenceProtocol::WriteInvalidate &&
                 state != CoherenceState::Modified,
             "checker: cpu ", cpu, " completed a write of 0x",
             std::hex, addr, std::dec, " but cache ", cacheIdx,
             " holds the line ", coherenceStateName(state),
             " — write-invalidate writes must end Modified");
    _oracle.commitWrite(cacheIdx, addr, _pending.seq);
    ++storesChecked;
    tmOnVerifiedWrite(cpu, addr);
}

std::deque<CoherenceChecker::BufferedStore> &
CoherenceChecker::bufferOf(CpuId cpu)
{
    panic_if(cpu < 0, "checker: bad cpu id ", cpu);
    if ((std::size_t)cpu >= _buffered.size())
        _buffered.resize((std::size_t)cpu + 1);
    return _buffered[(std::size_t)cpu];
}

std::size_t
CoherenceChecker::pendingStores(CpuId cpu) const
{
    if (cpu < 0 || (std::size_t)cpu >= _buffered.size())
        return 0;
    return _buffered[(std::size_t)cpu].size();
}

std::uint64_t
CoherenceChecker::onStoreBuffered(CpuId cpu, int cacheIdx, Addr addr)
{
    // Sequence numbers are assigned at retirement, so per-CPU they
    // follow program order even though the commits below happen in
    // drain order.
    Value seq = ++_writeSeq;
    bufferOf(cpu).push_back(
        {_oracle.wordOf(addr), cacheIdx, seq});
    return seq;
}

void
CoherenceChecker::onStoreDrainStart(CpuId cpu, int cacheIdx,
                                    Addr addr, std::uint64_t seq)
{
    panic_if(_pending.active,
             "checker: cpu ", cpu, " started a drain while cpu ",
             _pending.cpu, "'s reference is still in flight");
    const auto &fifo = bufferOf(cpu);
    panic_if(fifo.empty(),
             "ORACLE: cpu ", cpu, " drained a store its buffer "
             "never retired (addr 0x", std::hex, addr, ")");
    const BufferedStore &head = fifo.front();
    panic_if(head.seq != seq ||
                 head.word != _oracle.wordOf(addr) ||
                 head.cache != cacheIdx,
             "ORACLE: cpu ", cpu, " drained write #", seq,
             " out of program order — buffer head is write #",
             head.seq, " (stores must leave the buffer FIFO)");
    // The drain is an ordinary write access as far as the protocol
    // events in between are concerned (Update broadcasts etc.), so
    // it borrows the same in-flight bracket — with the sequence
    // number assigned back at retirement, not a fresh one.
    _pending.active = true;
    _pending.cpu = cpu;
    _pending.cache = cacheIdx;
    _pending.type = RefType::Write;
    _pending.addr = addr;
    _pending.seq = seq;
}

void
CoherenceChecker::onStoreDrainEnd(CpuId cpu, int cacheIdx, Addr addr)
{
    panic_if(!_pending.active || _pending.cpu != cpu ||
                 _pending.cache != cacheIdx ||
                 _pending.type != RefType::Write ||
                 _pending.addr != addr,
             "checker: drain end does not match the in-flight "
             "drain (cpu ", cpu, " addr 0x", std::hex, addr, ")");
    _pending.active = false;

    const SharedClusterCache *cache =
        _caches.at((std::size_t)cacheIdx);
    CoherenceState state = cache->stateOf(addr);
    panic_if(state == CoherenceState::Invalid,
             "checker: cpu ", cpu, " drained a store to 0x",
             std::hex, addr, std::dec, " but cache ", cacheIdx,
             " does not hold the line");
    panic_if(_protocol == CoherenceProtocol::WriteInvalidate &&
                 state != CoherenceState::Modified,
             "checker: cpu ", cpu, " drained a store to 0x",
             std::hex, addr, std::dec, " but cache ", cacheIdx,
             " holds the line ", coherenceStateName(state),
             " — write-invalidate writes must end Modified");
    // The write commits NOW — golden memory advances in drain
    // order, which is exactly the visibility weak ordering grants.
    _oracle.commitWrite(cacheIdx, addr, _pending.seq);
    bufferOf(cpu).pop_front();
    ++storesChecked;
}

void
CoherenceChecker::onLoadForwarded(CpuId cpu, Addr addr)
{
    // Read bypass must return the YOUNGEST pending store to the
    // word, and only if one actually exists — forwarding anything
    // else would invent a value no execution could observe.
    const auto &fifo = bufferOf(cpu);
    const Addr word = _oracle.wordOf(addr);
    for (auto it = fifo.rbegin(); it != fifo.rend(); ++it) {
        if (it->word == word) {
            _lastLoadValue = it->seq;
            ++forwardsChecked;
            return;
        }
    }
    panic("ORACLE: cpu ", cpu, " forwarded a load of 0x", std::hex,
          addr, std::dec,
          " from its store buffer, but no store to that word is "
          "pending");
}

void
CoherenceChecker::onFence(CpuId cpu)
{
    // Fence-ordered visibility: when a fence completes, every store
    // the processor retired before it must be globally performed.
    // A fence that lets a buffered store survive is exactly the bug
    // that breaks message passing under weak ordering.
    std::size_t pending = pendingStores(cpu);
    panic_if(pending != 0,
             "ORACLE: fence completed on cpu ", cpu, " with ",
             pending,
             " undrained stores — fence-ordered visibility "
             "violated");
    ++fencesChecked;
}

CoherenceChecker::TmMirror &
CoherenceChecker::tmMirrorOf(CpuId cpu)
{
    panic_if(cpu < 0, "checker: bad cpu id ", cpu);
    if ((std::size_t)cpu >= _tmMirrors.size())
        _tmMirrors.resize((std::size_t)cpu + 1);
    return _tmMirrors[(std::size_t)cpu];
}

void
CoherenceChecker::tmOnVerifiedRead(CpuId cpu, Addr addr, Value got)
{
    if (cpu < 0 || (std::size_t)cpu >= _tmMirrors.size())
        return;
    TmMirror &m = _tmMirrors[(std::size_t)cpu];
    if (m.phase == TmMirror::Phase::Idle)
        return;
    panic_if(m.phase == TmMirror::Phase::Publishing,
             "ORACLE: cpu ", cpu, " read 0x", std::hex, addr,
             std::dec, " in the middle of its own commit "
             "publication");
    // Snapshot semantics: the first read of a word fixes what the
    // whole transaction must observe; any later read returning a
    // different write is an isolation violation caught on the spot
    // (commit validation catches the rest).
    Addr word = _oracle.wordOf(addr);
    auto it = m.readSet.find(word);
    if (it == m.readSet.end()) {
        m.readSet.emplace(word, got);
        return;
    }
    panic_if(it->second != got,
             "ORACLE: isolation violated! cpu ", cpu,
             " re-read 0x", std::hex, word, std::dec,
             " inside a transaction and observed write #", got,
             " after first observing write #", it->second);
    ++tmReadSetChecks;
}

void
CoherenceChecker::tmOnVerifiedWrite(CpuId cpu, Addr addr)
{
    if (cpu < 0 || (std::size_t)cpu >= _tmMirrors.size())
        return;
    TmMirror &m = _tmMirrors[(std::size_t)cpu];
    if (m.phase == TmMirror::Phase::Idle)
        return;
    panic_if(m.phase == TmMirror::Phase::Active,
             "ORACLE: atomicity violated! cpu ", cpu,
             " committed a write of 0x", std::hex, addr, std::dec,
             " to golden memory inside a transaction, before "
             "commit publication");
    Addr word = _oracle.wordOf(addr);
    auto it = m.writeSet.find(word);
    panic_if(it == m.writeSet.end(),
             "ORACLE: cpu ", cpu, " published 0x", std::hex, word,
             std::dec,
             " at commit, but the transaction never speculatively "
             "wrote that word");
    it->second = true;
    ++tmPublishesChecked;
}

void
CoherenceChecker::onTmBegin(CpuId cpu)
{
    TmMirror &m = tmMirrorOf(cpu);
    panic_if(m.phase != TmMirror::Phase::Idle,
             "checker: cpu ", cpu,
             " began a transaction inside a transaction");
    m.phase = TmMirror::Phase::Active;
    m.readSet.clear();
    m.writeSet.clear();
}

void
CoherenceChecker::onTmStore(CpuId cpu, Addr wordAddr)
{
    TmMirror &m = tmMirrorOf(cpu);
    panic_if(m.phase != TmMirror::Phase::Active,
             "checker: cpu ", cpu,
             " speculatively stored outside an active transaction");
    m.writeSet[_oracle.wordOf(wordAddr)] = false;
}

void
CoherenceChecker::onTmCommitStart(CpuId cpu)
{
    TmMirror &m = tmMirrorOf(cpu);
    panic_if(m.phase != TmMirror::Phase::Active,
             "checker: cpu ", cpu,
             " committed without an active transaction");
    // Isolation validation: everything this transaction read must
    // still be the newest committed write NOW, at the serialization
    // point, or the transaction observed a state that never existed
    // atomically. Runs before publication so the transaction's own
    // writes cannot self-conflict.
    for (const auto &entry : m.readSet) {
        panic_if(_oracle.golden(entry.first) != entry.second,
                 "ORACLE: isolation violated! cpu ", cpu,
                 " is committing a transaction that observed "
                 "write #", entry.second, " of word 0x", std::hex,
                 entry.first, std::dec,
                 " but the newest committed write is #",
                 _oracle.golden(entry.first),
                 " — a conflicting writer was not detected");
        ++tmReadSetChecks;
    }
    m.phase = TmMirror::Phase::Publishing;
    ++tmCommitsChecked;
}

void
CoherenceChecker::onTmCommitEnd(CpuId cpu)
{
    TmMirror &m = tmMirrorOf(cpu);
    panic_if(m.phase != TmMirror::Phase::Publishing,
             "checker: cpu ", cpu,
             " finished a commit it never started");
    // All-at-once visibility: every speculative word must have
    // published inside the commit window.
    for (const auto &entry : m.writeSet) {
        panic_if(!entry.second,
                 "ORACLE: atomicity violated! cpu ", cpu,
                 " committed a transaction but never published "
                 "speculative word 0x", std::hex, entry.first,
                 std::dec);
    }
    m.phase = TmMirror::Phase::Idle;
    m.readSet.clear();
    m.writeSet.clear();
}

void
CoherenceChecker::onTmAbort(CpuId cpu)
{
    TmMirror &m = tmMirrorOf(cpu);
    // Publication is all-or-nothing: a manager that starts
    // publishing must commit; aborting mid-publication would leave
    // a partial transaction visible forever.
    panic_if(m.phase != TmMirror::Phase::Active,
             "ORACLE: atomicity violated! cpu ", cpu,
             " aborted a transaction ",
             m.phase == TmMirror::Phase::Publishing
                 ? "in the middle of commit publication"
                 : "it never began");
    m.phase = TmMirror::Phase::Idle;
    m.readSet.clear();
    m.writeSet.clear();
    ++tmAbortsChecked;
}

void
CoherenceChecker::onEvict(ClusterId cache, Addr lineAddr, bool dirty)
{
    ++eventsObserved;
    // A clean eviction is silent: the dropped copy must match
    // memory or dirty data just vanished. A dirty victim was
    // flushed (onDirtyFlush) immediately before this event.
    _oracle.drop(cache, lineAddr, !dirty);
}

void
CoherenceChecker::onFill(ClusterId cache, Addr lineAddr,
                         CoherenceState state)
{
    ++eventsObserved;
    panic_if(state == CoherenceState::Invalid,
             "checker: cache ", cache, " filled line 0x", std::hex,
             lineAddr, " Invalid");
    _oracle.fill(cache, lineAddr);
}

void
CoherenceChecker::onDirtyFlush(ClusterId cache, Addr lineAddr)
{
    ++eventsObserved;
    _oracle.flush(cache, lineAddr);
}

void
CoherenceChecker::onInvalidate(ClusterId cache, Addr lineAddr)
{
    ++eventsObserved;
    panic_if(_caches.at((std::size_t)cache)->stateOf(lineAddr) !=
                 CoherenceState::Invalid,
             "checker: cache ", cache,
             " reported invalidating line 0x", std::hex, lineAddr,
             std::dec, " but still holds it");
    // Invalidated data is destroyed, not written back — the writer
    // that forced the invalidation owns the newest value. Any dirty
    // data was flushed by the preceding intervention.
    _oracle.drop(cache, lineAddr, false);
}

void
CoherenceChecker::onUpdateAbsorbed(ClusterId cache, Addr lineAddr)
{
    ++eventsObserved;
    panic_if(!_pending.active ||
                 _pending.type != RefType::Write ||
                 _oracle.lineOf(_pending.addr) != lineAddr,
             "checker: cache ", cache,
             " absorbed an update for line 0x", std::hex, lineAddr,
             std::dec, " with no matching write in flight");
    _oracle.applyUpdate(cache, lineAddr,
                        _oracle.wordOf(_pending.addr),
                        _pending.seq);
}

void
CoherenceChecker::onBusTransaction(ClusterId source, BusOp op,
                                   Addr lineAddr, Cycle grant)
{
    (void)grant;
    ++eventsObserved;
    ++_transactions;

    if (op == BusOp::Update) {
        panic_if(!_pending.active ||
                     _pending.type != RefType::Write ||
                     _oracle.lineOf(_pending.addr) != lineAddr,
                 "checker: Update transaction for line 0x",
                 std::hex, lineAddr, std::dec,
                 " with no matching write in flight");
        Addr word = _oracle.wordOf(_pending.addr);
        // An update broadcast is a write-through: memory takes the
        // new word, and so does the writer's own copy if it already
        // holds the line (a write-update write miss broadcasts
        // before its fill arrives).
        _oracle.updateMemory(word, _pending.seq);
        if (_oracle.hasCopy((int)source, lineAddr))
            _oracle.applyUpdate((int)source, lineAddr, word,
                                _pending.seq);
    }

    checkLineAfterTransaction(_caches, source, op, lineAddr);
    ++lineChecks;

    if (_options.walkInterval == 0 ||
        _transactions % _options.walkInterval == 0) {
        fullWalk();
    }
}

void
CoherenceChecker::fullWalk()
{
    WalkStats stats = walkTagInvariants(_caches, &_oracle);
    ++fullWalks;
    linesWalked += stats.linesWalked;
    partitionChecks += stats.partitionChecks;
    bankChecks += stats.bankChecks;
}

std::uint64_t
CoherenceChecker::checksPerformed() const
{
    return (std::uint64_t)(loadsChecked.value() +
                           storesChecked.value() +
                           lineChecks.value() + fullWalks.value() +
                           forwardsChecked.value() +
                           fencesChecked.value() +
                           tmCommitsChecked.value() +
                           tmReadSetChecks.value() +
                           tmPublishesChecked.value() +
                           tmAbortsChecked.value());
}

} // namespace scmp::check
