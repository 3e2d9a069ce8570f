// Sharded-RIC fixture (DESIGN.md §13): per-shard state may only cross to
// the home thread through a conduit (SpscRing) or an annotated
// @cross_domain function. Golden findings (expected.txt):
//   * home-side @affine(reactor) code reading a shard's counters directly
//     (merge-on-grab instead of merge-on-query),
//   * unattributed code scribbling on shard-owned state.
// The SpscRing conduit push and the @cross_domain reconcile stay silent.
#include <cstdint>

namespace flexric {

template <typename T>
class SpscRing {
 public:
  bool try_push(T v) {
    slot_ = v;
    return true;
  }

 private:
  T slot_{};
};

// One shard's half of the ledger: owned by that shard's reactor thread.
// @affine(shard)
struct ShardCell {
  std::uint64_t frames = 0;
  std::uint64_t shed = 0;
  SpscRing<std::uint64_t> events;  // the sanctioned way out
};

// Home-side merge reaching straight into the shard's universe instead of
// summing the published board slots.
// @affine(reactor)
inline std::uint64_t merge_on_grab(ShardCell& c) {
  return c.frames + c.shed;
}

// The sanctioned crossing: pushes into the conduit field are silent.
// @affine(reactor)
inline void hand_over(ShardCell& c) {
  (void)c.events.try_push(1);
}

// Unattributed helper scribbling on shard-owned state.
inline void reset(ShardCell* c) {
  c->frames = 0;
}

// Approved conduit function: may touch any domain.
// @cross_domain
inline void reconcile(ShardCell& c) {
  c.shed = 0;
}

}  // namespace flexric
