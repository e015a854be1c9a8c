#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "sched/schedpoint.hpp"
#include "tm/word.hpp"
#include "util/tsan.hpp"

namespace hohtm::tm {

/// Append-only read log shared by the validating backends: NOrec logs
/// (address, value) pairs, TL2 and TLEager log the orecs they read.
///
/// Every transactional read appends one entry, so the append is inline
/// (a bounds check and a store) and growth is out of line. Growth
/// allocates without initializing: capacity the log has not used yet is
/// never written, so a thread's first long transaction does not fault in
/// pages it will not fill. The transaction object is reused across
/// retries, so `clear()` keeps the capacity and only resets the fill.
template <class Entry>
class ReadLog {
  static_assert(std::is_trivially_default_constructible_v<Entry> &&
                    std::is_trivially_copyable_v<Entry>,
                "growth copies entries bytewise into uninitialized storage");

 public:
  void push(const Entry& e) {
    if (size_ == capacity_) [[unlikely]]
      grow();
    data_[size_++] = e;
  }

  void clear() noexcept { size_ = 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  const Entry* begin() const noexcept { return data_.get(); }
  const Entry* end() const noexcept { return data_.get() + size_; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  [[gnu::noinline]] void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    auto bigger = std::make_unique_for_overwrite<Entry[]>(capacity);
    if (size_ != 0)
      std::memcpy(bigger.get(), data_.get(), size_ * sizeof(Entry));
    data_ = std::move(bigger);
    capacity_ = capacity;
  }

  std::unique_ptr<Entry[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Redo-log write set for lazy (write-back) backends: NOrec and TL2.
///
/// Once a transaction has written, every transactional read probes it
/// (read-after-write); while it is empty the backends skip the probe,
/// since an empty redo log cannot buffer the address. We keep an
/// append-only log (preserving program order for write-back) plus an
/// open-addressed index from address to log position. Capacities are
/// powers of two; the index is rebuilt on growth. The transaction object
/// is reused across retries, so `clear()` keeps the capacity and only
/// resets the fill.
class WriteSet {
 public:
  struct Entry {
    std::uintptr_t addr = 0;
    ErasedWord word;
  };

  WriteSet() { rebuild_index(16); }

  bool empty() const noexcept { return log_.empty(); }
  std::size_t size() const noexcept { return log_.size(); }

  /// Insert or overwrite the buffered value for `addr`.
  void put(void* addr, ErasedWord w) {
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    std::size_t pos = probe(key);
    if (index_[pos] != kEmpty) {
      log_[index_[pos]].word = w;
      return;
    }
    index_[pos] = static_cast<std::uint32_t>(log_.size());
    log_.push_back(Entry{key, w});
    if (log_.size() * 2 > index_.size()) rebuild_index(index_.size() * 2);
  }

  /// Return the buffered value for `addr`, or nullptr if absent.
  const ErasedWord* find(const void* addr) const noexcept {
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    ++probes_;
    const std::size_t pos = probe(key);
    if (index_[pos] == kEmpty) return nullptr;
    return &log_[index_[pos]].word;
  }

  /// Apply every buffered write to memory, in program order.
  void write_back() const noexcept {
    for (const Entry& e : log_)
      erased_store(reinterpret_cast<void*>(e.addr), e.word);
  }

  const std::vector<Entry>& entries() const noexcept { return log_; }

  /// Calls to find() over this set's lifetime (clear() keeps the count).
  /// Diagnostics and tests only: the read-only-window gate checks that a
  /// transaction that has not written never probes.
  std::uint64_t probes() const noexcept { return probes_; }

  /// Empty the set in O(size), not O(index capacity): the index never
  /// shrinks, so refilling it whole would make one large writer tax every
  /// later begin() of its thread. Each entry's slot lies on the probe
  /// path from its home slot; it is the one that holds its log position.
  void clear() noexcept {
    if (log_.empty()) return;
    const std::size_t mask = index_.size() - 1;
    for (std::uint32_t i = 0; i < log_.size(); ++i) {
      std::size_t pos = home(log_[i].addr);
      while (index_[pos] != i) pos = (pos + 1) & mask;
      index_[pos] = kEmpty;
    }
    log_.clear();
  }

 private:
  static constexpr std::uint32_t kEmpty = ~0u;

  /// Fibonacci hashing on the word address; linear probing from here.
  std::size_t home(std::uintptr_t key) const noexcept {
    return (key * 0x9E3779B97F4A7C15ULL) >> shift_ & (index_.size() - 1);
  }

  std::size_t probe(std::uintptr_t key) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = home(key);
    while (index_[pos] != kEmpty && log_[index_[pos]].addr != key)
      pos = (pos + 1) & mask;
    return pos;
  }

  void rebuild_index(std::size_t capacity) {
    index_.assign(capacity, kEmpty);
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < log_.size(); ++i) {
      std::size_t pos = home(log_[i].addr);
      while (index_[pos] != kEmpty) pos = (pos + 1) & mask;
      index_[pos] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<Entry> log_;
  std::vector<std::uint32_t> index_;
  unsigned shift_ = 60;
  mutable std::uint64_t probes_ = 0;
};

/// Undo log for eager (write-through) execution: TML writers and the
/// serial-irrevocable modes. Records the previous value before each
/// in-place store, replayed in reverse on a user-requested retry.
class UndoLog {
 public:
  void record(void* addr, ErasedWord old_value) {
    log_.push_back({reinterpret_cast<std::uintptr_t>(addr), old_value});
  }

  void roll_back() noexcept {
    for (auto it = log_.rbegin(); it != log_.rend(); ++it)
      erased_store(reinterpret_cast<void*>(it->addr), it->word);
    log_.clear();
  }

  void clear() noexcept { log_.clear(); }
  bool empty() const noexcept { return log_.empty(); }

 private:
  struct Entry {
    std::uintptr_t addr;
    ErasedWord word;
  };
  std::vector<Entry> log_;
};

/// Owner-private redo buffer: one transaction's PrivateCell writes (see
/// LifecycleLog). It only ever holds the calling thread's own cells, a
/// few per reservation object the transaction touches, so a lookup scans
/// the log instead of keeping a hash index like WriteSet.
class PrivateLog {
 public:
  bool empty() const noexcept { return log_.empty(); }

  /// Insert or overwrite the buffered value for `addr`.
  void put(void* addr, ErasedWord w) {
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    for (Entry& e : log_) {
      if (e.addr == key) {
        e.word = w;
        return;
      }
    }
    log_.push_back(Entry{key, w});
  }

  /// Return the buffered value for `addr`, or nullptr if absent.
  const ErasedWord* find(const void* addr) const noexcept {
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    for (const Entry& e : log_)
      if (e.addr == key) return &e.word;
    return nullptr;
  }

  /// Apply every buffered write in program order, with plain stores: no
  /// other thread accesses these cells (see TxLifecycle).
  void write_back() const noexcept {
    for (const Entry& e : log_)
      plain_store(reinterpret_cast<void*>(e.addr), e.word);
  }

  void clear() noexcept { log_.clear(); }

 private:
  struct Entry {
    std::uintptr_t addr;
    ErasedWord word;
  };
  std::vector<Entry> log_;
};

/// Lifecycle log: everything a transaction settles only once it knows
/// whether it committed. `alloc` registers a destroy-and-free thunk to
/// run if the transaction aborts; `dealloc` registers one to run after
/// the transaction commits (and, in concurrent backends, after the
/// quiescence fence — this is what makes reclamation precise yet safe).
/// The private buffer holds the transaction's owner-private writes
/// (PrivateCell): written back on commit, dropped on abort. Every
/// backend ends every attempt — normal, serial, or undo-logged — in
/// exactly one of commit() or abort(), so this one buffer gives all of
/// them the private path.
class LifecycleLog {
 public:
  using Thunk = void (*)(void*) noexcept;

  void on_abort(void* p, Thunk destroy) { allocs_.push_back({p, destroy}); }
  void on_commit(void* p, Thunk destroy) { frees_.push_back({p, destroy}); }

  bool has_pending_frees() const noexcept { return !frees_.empty(); }

  PrivateLog& private_writes() noexcept { return private_; }

  /// Transaction committed: private writes land, allocations become
  /// permanent, deferred frees run.
  void commit() noexcept {
    private_.write_back();
    private_.clear();
    allocs_.clear();
    for (const Record& r : frees_) {
      // Pairs with tsan::release(ref) in rr::note_reserve/note_revocation:
      // every annotated reservation of this node happens-before its free.
      tsan::acquire(r.ptr);
      r.destroy(r.ptr);
    }
    frees_.clear();
  }

  /// Transaction aborted: private writes and deferred frees are dropped,
  /// allocations undone.
  void abort() noexcept {
    if (sched::mutate(sched::Mutation::kPrivateWriteBackOnAbort))
      private_.write_back();
    private_.clear();
    frees_.clear();
    for (auto it = allocs_.rbegin(); it != allocs_.rend(); ++it)
      it->destroy(it->ptr);
    allocs_.clear();
  }

 private:
  struct Record {
    void* ptr;
    Thunk destroy;
  };
  std::vector<Record> allocs_;
  std::vector<Record> frees_;
  PrivateLog private_;
};

}  // namespace hohtm::tm
