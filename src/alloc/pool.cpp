#include "alloc/pool.hpp"

#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "util/cacheline.hpp"
#include "util/per_thread.hpp"
#include "util/trace.hpp"

namespace hohtm::alloc {
namespace {

// ---------------------------------------------------------------------------
// Block header: one word in front of every allocation, recording how the
// block must be freed. Kept 16 bytes to preserve 16-byte user alignment.
// ---------------------------------------------------------------------------
constexpr std::uint64_t kBackendMalloc = 0;
constexpr std::uint64_t kBackendPool = 1;

struct alignas(16) Header {
  std::uint64_t backend;  // kBackendMalloc / kBackendPool
  std::uint32_t size_class;
  std::uint32_t owner_slot;
};
static_assert(sizeof(Header) == 16);

// ---------------------------------------------------------------------------
// Size classes: 32, 64, 128, ..., 4096 payload bytes (header included in
// the carved block). Larger requests fall back to malloc.
// ---------------------------------------------------------------------------
constexpr std::size_t kClassCount = 8;
constexpr std::size_t class_bytes(std::size_t cls) { return 32u << cls; }
constexpr std::size_t kMaxPooled = class_bytes(kClassCount - 1);
constexpr std::size_t kSlabBytes = 256 * 1024;

std::size_t class_for(std::size_t bytes) noexcept {
  std::size_t cls = 0;
  while (class_bytes(cls) < bytes + sizeof(Header)) ++cls;
  return cls;
}

/// Intrusive free-list link living in the (dead) payload.
struct FreeBlock {
  FreeBlock* next;
};

struct PerClass {
  FreeBlock* local = nullptr;             // owner-only LIFO
  std::atomic<FreeBlock*> remote{nullptr};  // Treiber stack of remote frees
  char* carve_ptr = nullptr;              // bump region of the current slab
  char* carve_end = nullptr;
};

struct ThreadCache {
  PerClass classes[kClassCount];
};

struct Shared {
  std::mutex slab_mu;
  std::vector<void*> slabs;  // every slab ever created; freed at exit
  std::atomic<std::uint64_t> slabs_created{0};
  std::atomic<std::uint64_t> local_hits{0};
  std::atomic<std::uint64_t> remote_reclaims{0};
  std::atomic<std::uint64_t> carve_allocs{0};

  ~Shared() {
    for (void* s : slabs) std::free(s);
  }
};

Shared& shared() {
  static Shared s;
  return s;
}

// `slot` is the caller's or a block owner's: registered, so live.
ThreadCache& cache_of(std::size_t slot) {
  static util::PerThread<ThreadCache> caches;
  return caches.live()[slot].value;
}

std::atomic<bool> g_use_pool{false};

Header* header_of(void* user) noexcept {
  return reinterpret_cast<Header*>(static_cast<char*>(user) - sizeof(Header));
}

void* pool_allocate(std::size_t bytes) {
  const std::size_t slot = util::ThreadRegistry::slot();
  const std::size_t cls = class_for(bytes);
  PerClass& pc = cache_of(slot).classes[cls];
  Shared& sh = shared();

  // 1. Local free list.
  if (pc.local != nullptr) {
    FreeBlock* block = pc.local;
    pc.local = block->next;
    sh.local_hits.fetch_add(1, std::memory_order_relaxed);
    Header* h = reinterpret_cast<Header*>(block);
    h->backend = kBackendPool;
    h->size_class = static_cast<std::uint32_t>(cls);
    h->owner_slot = static_cast<std::uint32_t>(slot);
    return reinterpret_cast<char*>(h) + sizeof(Header);
  }
  // 2. Reclaim blocks other threads freed back to us.
  if (FreeBlock* batch =
          pc.remote.exchange(nullptr, std::memory_order_acquire)) {
    pc.local = batch;
    sh.remote_reclaims.fetch_add(1, std::memory_order_relaxed);
    return pool_allocate(bytes);
  }
  // 3. Carve from the current slab, creating one if needed.
  const std::size_t block_bytes = class_bytes(cls);
  if (pc.carve_ptr == nullptr ||
      pc.carve_ptr + block_bytes > pc.carve_end) {
    void* slab = std::aligned_alloc(util::kCacheLineSize, kSlabBytes);
    if (slab == nullptr) throw std::bad_alloc();
    {
      std::lock_guard<std::mutex> lock(sh.slab_mu);
      sh.slabs.push_back(slab);
    }
    sh.slabs_created.fetch_add(1, std::memory_order_relaxed);
    pc.carve_ptr = static_cast<char*>(slab);
    pc.carve_end = pc.carve_ptr + kSlabBytes;
  }
  Header* h = reinterpret_cast<Header*>(pc.carve_ptr);
  pc.carve_ptr += block_bytes;
  sh.carve_allocs.fetch_add(1, std::memory_order_relaxed);
  h->backend = kBackendPool;
  h->size_class = static_cast<std::uint32_t>(cls);
  h->owner_slot = static_cast<std::uint32_t>(slot);
  return reinterpret_cast<char*>(h) + sizeof(Header);
}

void pool_deallocate(Header* h) noexcept {
  const std::size_t slot = util::ThreadRegistry::slot();
  PerClass& owner_pc = cache_of(h->owner_slot).classes[h->size_class];
  auto* block = reinterpret_cast<FreeBlock*>(h);
  if (h->owner_slot == slot) {
    block->next = owner_pc.local;
    owner_pc.local = block;
    return;
  }
  // Remote free: push onto the owner's Treiber stack.
  FreeBlock* head = owner_pc.remote.load(std::memory_order_relaxed);
  do {
    block->next = head;
  } while (!owner_pc.remote.compare_exchange_weak(
      head, block, std::memory_order_release, std::memory_order_relaxed));
}

}  // namespace

void* allocate(std::size_t bytes) {
  util::trace_event(util::Ev::kAlloc, bytes);
  if (g_use_pool.load(std::memory_order_relaxed) &&
      bytes + sizeof(Header) <= kMaxPooled) {
    return pool_allocate(bytes);
  }
  void* raw = std::malloc(bytes + sizeof(Header));
  if (raw == nullptr) throw std::bad_alloc();
  Header* h = static_cast<Header*>(raw);
  h->backend = kBackendMalloc;
  h->size_class = 0;
  h->owner_slot = 0;
  return static_cast<char*>(raw) + sizeof(Header);
}

void deallocate(void* p) noexcept {
  if (p == nullptr) return;
  util::trace_event(util::Ev::kFree, reinterpret_cast<std::uintptr_t>(p));
  Header* h = header_of(p);
  if (h->backend == kBackendPool)
    pool_deallocate(h);
  else
    std::free(h);
}

void use_pool(bool enabled) noexcept {
  g_use_pool.store(enabled, std::memory_order_relaxed);
}

bool pool_enabled() noexcept {
  return g_use_pool.load(std::memory_order_relaxed);
}

const char* backend_name() noexcept {
  return pool_enabled() ? "pool" : "malloc";
}

PoolStats pool_stats() noexcept {
  Shared& sh = shared();
  PoolStats stats;
  stats.slabs_created = sh.slabs_created.load(std::memory_order_relaxed);
  stats.local_hits = sh.local_hits.load(std::memory_order_relaxed);
  stats.remote_reclaims = sh.remote_reclaims.load(std::memory_order_relaxed);
  stats.carve_allocs = sh.carve_allocs.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace hohtm::alloc
