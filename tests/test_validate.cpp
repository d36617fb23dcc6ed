// Negative-path tests for DynamicForest::validate(): every failure branch,
// reached by corrupting one record of a valid forest, must produce its
// exact message, and the same message under the serial and the pooled
// executor.
//
// The fixture forest has n = 8: the path 0-1-2-3 as tree edges, the
// non-tree edge (0,2) in the same component, and the singletons 4..7.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dyn_forest.hpp"
#include "dmpc/executor.hpp"

namespace core {

/// Test-only access to the forest's distributed records.  Every helper
/// writes through the shards' own mutators where one exists, so the
/// component indexes stay exact unless a test means to break them.
struct DynamicForestTestPeer {
  using Forest = DynamicForest;
  using EdgeShard = DynamicForest::EdgeShard;
  using EdgeRec = DynamicForest::EdgeRec;
  using VertexRec = DynamicForest::VertexRec;

  static const VertexRec& vertex(const Forest& f, VertexId v) {
    return f.machines_[f.vertex_machine(v)].vertices.at(v);
  }
  static void set_vertex(Forest& f, VertexId v, Word comp, Word cached_idx) {
    DynamicForest::VertexShard& vs = f.machines_[f.vertex_machine(v)].vertices;
    vs.set(vs.lid_of(v), VertexRec{comp, cached_idx});
  }

  /// The shard and slot holding edge (u, v)'s record.
  struct Slot {
    EdgeShard* shard;
    std::size_t s;
  };
  static Slot edge(Forest& f, VertexId u, VertexId v) {
    EdgeShard& es = f.machines_[f.edge_machine(u, v)].edges;
    const std::ptrdiff_t s = es.find(f.edge_key(u, v));
    EXPECT_NE(s, EdgeShard::kNpos) << "no record for (" << u << "," << v << ")";
    return {&es, static_cast<std::size_t>(s)};
  }
  static void put_edge(Forest& f, VertexId u, VertexId v, const EdgeRec& r) {
    f.machines_[f.edge_machine(u, v)].edges.put(f.edge_key(u, v), r);
  }
  static void erase_edge(Forest& f, VertexId u, VertexId v) {
    f.machines_[f.edge_machine(u, v)].edges.erase(f.edge_key(u, v));
  }

  /// Component `comp`'s directory entry, wherever it is stored.
  static std::unordered_map<Word, Word>::iterator dir(Forest& f, Word comp) {
    for (auto& ms : f.machines_) {
      const auto it = ms.comp_sizes.find(comp);
      if (it != ms.comp_sizes.end()) return it;
    }
    ADD_FAILURE() << "no directory entry for component " << comp;
    return {};
  }
  static void erase_dir(Forest& f, Word comp) {
    for (auto& ms : f.machines_) ms.comp_sizes.erase(comp);
  }

  /// Re-initializes the shard hosting `v` without clearing its component
  /// index, which then lists records the shard no longer has.
  static std::size_t desync_vertex_index(Forest& f, VertexId v) {
    const std::size_t m = f.vertex_machine(v);
    f.machines_[m].vertices.init(m, f.machines_.size(), f.config_.n);
    return m;
  }

  /// Component `comp`'s tour (position i at [i - 1]), read off its tree
  /// records.
  static std::vector<VertexId> tour(const Forest& f, Word comp) {
    std::vector<VertexId> t;
    for (const auto& ms : f.machines_) {
      const EdgeShard& es = ms.edges;
      for (std::size_t s = 0; s < es.size(); ++s) {
        if (es.tree[s] == 0 || es.comp_at(s) != comp) continue;
        for (auto [w, i] : {std::pair{es.u[s], es.iu1[s]},
                            std::pair{es.u[s], es.iu2[s]},
                            std::pair{es.v[s], es.iv1[s]},
                            std::pair{es.v[s], es.iv2[s]}}) {
          if (t.size() < static_cast<std::size_t>(i)) t.resize(i);
          t[i - 1] = w;
        }
      }
    }
    return t;
  }

  /// Rewrites component `comp`'s tree-record indexes so the positions
  /// read `t`: each record takes the next two unused positions of each
  /// endpoint.  `t` must list every endpoint exactly twice per incident
  /// tree edge.
  static void set_tour(Forest& f, Word comp, const std::vector<VertexId>& t) {
    std::vector<bool> used(t.size(), false);
    const auto take = [&](VertexId w) -> Word {
      for (std::size_t p = 0; p < t.size(); ++p) {
        if (!used[p] && t[p] == w) {
          used[p] = true;
          return static_cast<Word>(p + 1);
        }
      }
      ADD_FAILURE() << "vertex " << w << " has too few tour positions";
      return 0;
    };
    for (auto& ms : f.machines_) {
      EdgeShard& es = ms.edges;
      for (std::size_t s = 0; s < es.size(); ++s) {
        if (es.tree[s] == 0 || es.comp_at(s) != comp) continue;
        es.iu1[s] = take(es.u[s]);
        es.iu2[s] = take(es.u[s]);
        es.iv1[s] = take(es.v[s]);
        es.iv2[s] = take(es.v[s]);
      }
    }
  }
};

}  // namespace core

namespace {

using core::DynamicForest;
using core::Word;
using Peer = core::DynamicForestTestPeer;
using graph::VertexId;

enum class Exec { kSerial, kPool };

class ValidateFailure : public ::testing::TestWithParam<Exec> {
 protected:
  void SetUp() override {
    forest_ = std::make_unique<DynamicForest>(
        core::DynForestConfig{.n = 8, .m_cap = 16});
    if (GetParam() == Exec::kPool) {
      // Cutoff 0: the 5-machine cluster still runs on the pool.
      forest_->cluster().set_executor(
          std::make_shared<dmpc::ThreadPoolExecutor>(2, 0));
    }
    forest_->preprocess(graph::EdgeList{{0, 1}, {1, 2}, {2, 3}});
    forest_->insert(0, 2);
    std::string why;
    ASSERT_TRUE(forest_->validate(&why)) << why;
    path_ = comp(0);
    ASSERT_EQ(Peer::tour(*forest_, path_).size(), 12U);
  }

  [[nodiscard]] Word comp(VertexId v) const {
    return Peer::vertex(*forest_, v).comp;
  }
  /// validate()'s failure message (empty if it passes).
  [[nodiscard]] std::string failure() const {
    std::string why;
    return forest_->validate(&why) ? std::string() : why;
  }

  std::unique_ptr<DynamicForest> forest_;
  Word path_ = -1;  // the component of 0-1-2-3
};

TEST_P(ValidateFailure, ComponentIndexOutOfSync) {
  const std::size_t m = Peer::desync_vertex_index(*forest_, 1);
  EXPECT_EQ(failure(),
            "component index out of sync on machine " + std::to_string(m));
}

TEST_P(ValidateFailure, UnresolvedCrossing) {
  const Peer::Slot e = Peer::edge(*forest_, 1, 2);
  e.shard->crossing[e.s] = 1;
  EXPECT_EQ(failure(), "unresolved crossing record");
}

TEST_P(ValidateFailure, MissingDirectoryEntry) {
  Peer::erase_dir(*forest_, path_);
  EXPECT_EQ(failure(), "missing directory entry");
}

TEST_P(ValidateFailure, DirectorySizeMismatch) {
  Peer::dir(*forest_, path_)->second = 5;
  EXPECT_EQ(failure(), "directory size mismatch for component " +
                           std::to_string(path_));
}

TEST_P(ValidateFailure, SingletonWithTreeEdges) {
  Peer::put_edge(*forest_, 4, 5,
                 {.u = 4, .v = 5, .comp = comp(4), .tree = true,
                  .iu1 = 1, .iu2 = 4, .iv1 = 2, .iv2 = 3});
  EXPECT_EQ(failure(), "singleton with tree edges");
}

TEST_P(ValidateFailure, SingletonWithCachedIndex) {
  Peer::set_vertex(*forest_, 4, comp(4), 1);
  EXPECT_EQ(failure(), "singleton with a cached tour index");
}

TEST_P(ValidateFailure, ComponentWithoutTreeEdges) {
  Peer::set_vertex(*forest_, 5, comp(4), Peer::vertex(*forest_, 5).cached_idx);
  Peer::dir(*forest_, comp(4))->second = 2;
  EXPECT_EQ(failure(), "component without tree edges");
}

TEST_P(ValidateFailure, TreeRecordsWithoutMembers) {
  // No vertex record names component 1000, so only a sweep over the
  // tree records' components finds it.
  Peer::put_edge(*forest_, 4, 5,
                 {.u = 4, .v = 5, .comp = 1000, .tree = true,
                  .iu1 = 1, .iu2 = 4, .iv1 = 2, .iv2 = 3});
  EXPECT_EQ(failure(), "tree records for component 1000 without members");
}

TEST_P(ValidateFailure, TourIndexOutOfRange) {
  const Peer::Slot e = Peer::edge(*forest_, 1, 2);
  e.shard->iv2[e.s] = 13;
  EXPECT_EQ(failure(), "tour index out of range");
}

TEST_P(ValidateFailure, DuplicateTourIndex) {
  const Peer::Slot e = Peer::edge(*forest_, 1, 2);
  e.shard->iu2[e.s] = e.shard->iu1[e.s];
  EXPECT_EQ(failure(), "duplicate tour index");
}

TEST_P(ValidateFailure, TourIncomplete) {
  Peer::erase_edge(*forest_, 2, 3);
  EXPECT_EQ(failure(),
            "tour incomplete for component " + std::to_string(path_));
}

TEST_P(ValidateFailure, TourNotClosed) {
  Peer::set_tour(*forest_, path_, {1, 1, 2, 2, 3, 3, 2, 2, 1, 1, 0, 0});
  EXPECT_EQ(failure(), "tour not closed");
}

TEST_P(ValidateFailure, TourWalkBroken) {
  Peer::set_tour(*forest_, path_, {0, 1, 2, 1, 2, 3, 3, 2, 2, 1, 1, 0});
  EXPECT_EQ(failure(), "tour walk broken");
}

TEST_P(ValidateFailure, TourTraversesNonTreeEdge) {
  // A closed walk 0 1 2 3 1 2 0 with the right appearance counts whose
  // step (3,1) is no tree edge.
  Peer::set_tour(*forest_, path_, {0, 1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 0});
  EXPECT_EQ(failure(), "tour traverses a non-tree edge");
}

TEST_P(ValidateFailure, VertexMissingFromTour) {
  // Tree record (2,3) now names the singleton 5: a well-formed tour over
  // {0,1,2,5} that never visits member 3.
  const Peer::Slot e = Peer::edge(*forest_, 2, 3);
  e.shard->v[e.s] = 5;
  EXPECT_EQ(failure(), "vertex 3 missing from tour");
}

TEST_P(ValidateFailure, StaleCachedVertexIndex) {
  const std::vector<VertexId> t = Peer::tour(*forest_, path_);
  Word other = 1;
  while (t[other - 1] == 0) ++other;
  Peer::set_vertex(*forest_, 0, path_, other);
  EXPECT_EQ(failure(), "stale cached index for vertex 0");
}

TEST_P(ValidateFailure, NonTreeInconsistentComponent) {
  const Peer::Slot e = Peer::edge(*forest_, 0, 2);
  ASSERT_EQ(e.shard->tree[e.s], 0);
  e.shard->set_comp(e.s, comp(4));
  EXPECT_EQ(failure(), "non-tree record with inconsistent component");
}

TEST_P(ValidateFailure, NonTreeStaleCachedIndex) {
  const std::vector<VertexId> t = Peer::tour(*forest_, path_);
  Word other = 1;
  while (t[other - 1] == 0) ++other;
  const Peer::Slot e = Peer::edge(*forest_, 0, 2);
  e.shard->iu1[e.s] = other;
  EXPECT_EQ(failure(), "stale cached index on non-tree edge (0,2)");
}

INSTANTIATE_TEST_SUITE_P(Executors, ValidateFailure,
                         ::testing::Values(Exec::kSerial, Exec::kPool),
                         [](const ::testing::TestParamInfo<Exec>& info) {
                           return info.param == Exec::kSerial ? "Serial"
                                                              : "Pool";
                         });

}  // namespace
