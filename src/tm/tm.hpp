#pragma once

/// Umbrella header for the hohtm transactional-memory substrate.
///
/// Five backends share one static-polymorphic interface:
///
///   using TM = hohtm::tm::Norec;                  // pick a backend
///   int v = TM::atomically([&](TM::Tx& tx) {      // run a transaction
///     int x = tx.read(shared.field);              // word read
///     tx.write(shared.field, x + 1);              // word write (buffered
///     Node* n = tx.alloc<Node>(args);             //  or undo-logged)
///     tx.dealloc(old);                            // freed at commit,
///     return x;                                   //  after quiescence
///   });
///
/// Owner-private path: `tx.read_private(cell)` / `tx.write_private(cell,
/// v)` on a PrivateCell (tm/word.hpp). Contract: the cell is never read
/// by another thread, which the type enforces (a cell exists only inside
/// a PrivateSlots holder, reached through its owner's `mine()`), and its
/// writes are written back only on commit (an abort, a user exception,
/// or a serial-mode retry drops them). The reads are not logged or
/// validated and the writes never enter the backend's write set, so a
/// transaction whose only writes are private commits as a reader. That
/// mirrors the paper's HTM, whose commits touch no global metadata: a
/// hand-over-hand window that only moves its own reservation cell does
/// not advance the NOrec seqlock or the TL2 clock.
///
/// See DESIGN.md section 1.1 for the backend comparison and section 3 for
/// why deferred-free-at-commit plus quiescence reproduces the reclamation
/// guarantee the paper obtains from HTM's immediate aborts.

#include <concepts>

#include "tm/glock.hpp"
#include "tm/norec.hpp"
#include "tm/tl2.hpp"
#include "tm/tleager.hpp"
#include "tm/tml.hpp"

namespace hohtm::tm {

/// Compile-time contract every backend satisfies. Data structures and
/// reservation implementations are templated over a TMBackend.
template <class TM>
concept TMBackend = requires(typename TM::Tx& tx, int& loc, int val,
                             PrivateCell<int>& cell) {
  { tx.read(loc) } -> std::same_as<int>;
  { tx.write(loc, val) };
  { tx.read_private(cell) } -> std::same_as<int>;
  { tx.write_private(cell, val) };
  { tx.template alloc<int>(0) } -> std::same_as<int*>;
  { tx.dealloc(static_cast<int*>(nullptr)) };
  { TM::atomically([](typename TM::Tx&) {}) };
  { TM::name() } -> std::convertible_to<const char*>;
};

static_assert(TMBackend<GLock>);
static_assert(TMBackend<Tml>);
static_assert(TMBackend<Norec>);
static_assert(TMBackend<Tl2>);
static_assert(TMBackend<TlEager>);

}  // namespace hohtm::tm
