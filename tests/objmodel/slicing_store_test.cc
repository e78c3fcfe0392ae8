#include "objmodel/slicing_store.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace tse::objmodel {
namespace {

const ClassId kCar(1);
const ClassId kJeep(2);
const ClassId kImported(3);
const PropertyDefId kWheels(10);
const PropertyDefId kNation(11);

TEST(SlicingStoreTest, CreateAndDestroy) {
  SlicingStore store;
  Oid a = store.CreateObject();
  Oid b = store.CreateObject();
  EXPECT_NE(a, b);
  EXPECT_TRUE(store.Exists(a));
  EXPECT_EQ(store.object_count(), 2u);
  ASSERT_TRUE(store.DestroyObject(a).ok());
  EXPECT_FALSE(store.Exists(a));
  EXPECT_TRUE(store.DestroyObject(a).IsNotFound());
}

TEST(SlicingStoreTest, CreateWithOidRespectsCollisions) {
  SlicingStore store;
  ASSERT_TRUE(store.CreateObjectWithOid(Oid(100)).ok());
  EXPECT_TRUE(store.CreateObjectWithOid(Oid(100)).IsAlreadyExists());
  // Allocator must skip past the reserved oid.
  Oid next = store.CreateObject();
  EXPECT_GT(next.value(), 100u);
}

TEST(SlicingStoreTest, SlicesAttachAndDetach) {
  SlicingStore store;
  Oid o = store.CreateObject();
  EXPECT_FALSE(store.HasSlice(o, kCar));
  ASSERT_TRUE(store.AddSlice(o, kCar).ok());
  ASSERT_TRUE(store.AddSlice(o, kCar).ok());  // idempotent
  EXPECT_TRUE(store.HasSlice(o, kCar));
  EXPECT_EQ(store.SliceClasses(o).size(), 1u);
  ASSERT_TRUE(store.RemoveSlice(o, kCar).ok());
  EXPECT_FALSE(store.HasSlice(o, kCar));
  EXPECT_TRUE(store.RemoveSlice(o, kCar).IsNotFound());
}

TEST(SlicingStoreTest, ValuesLiveInSlices) {
  SlicingStore store;
  Oid o = store.CreateObject();
  // SetValue lazily creates the slice (dynamic restructuring).
  ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(4)).ok());
  EXPECT_TRUE(store.HasSlice(o, kCar));
  EXPECT_EQ(store.GetValue(o, kCar, kWheels).value(), Value::Int(4));
  // Unset property reads as Null.
  EXPECT_EQ(store.GetValue(o, kCar, kNation).value(), Value::Null());
  // Missing slice reads as Null too.
  EXPECT_EQ(store.GetValue(o, kImported, kNation).value(), Value::Null());
  // Missing object is an error.
  EXPECT_FALSE(store.GetValue(Oid(999), kCar, kWheels).ok());
}

TEST(SlicingStoreTest, MultipleClassificationViaSlices) {
  // Figure 5 (c): o1 is simultaneously Car, Jeep and Imported.
  SlicingStore store;
  Oid o1 = store.CreateObject();
  ASSERT_TRUE(store.SetValue(o1, kCar, kWheels, Value::Int(4)).ok());
  ASSERT_TRUE(store.AddSlice(o1, kJeep).ok());
  ASSERT_TRUE(store.SetValue(o1, kImported, kNation, Value::Str("JP")).ok());
  EXPECT_EQ(store.SliceClasses(o1).size(), 3u);
  EXPECT_EQ(store.GetValue(o1, kCar, kWheels).value(), Value::Int(4));
  EXPECT_EQ(store.GetValue(o1, kImported, kNation).value(),
            Value::Str("JP"));
  // Dropping Imported keeps Car state (dynamic declassification).
  ASSERT_TRUE(store.RemoveSlice(o1, kImported).ok());
  EXPECT_EQ(store.GetValue(o1, kCar, kWheels).value(), Value::Int(4));
}

TEST(SlicingStoreTest, MembershipAndExtents) {
  SlicingStore store;
  Oid a = store.CreateObject();
  Oid b = store.CreateObject();
  ASSERT_TRUE(store.AddMembership(a, kCar).ok());
  ASSERT_TRUE(store.AddMembership(b, kCar).ok());
  ASSERT_TRUE(store.AddMembership(b, kJeep).ok());
  EXPECT_EQ(store.DirectExtent(kCar).size(), 2u);
  EXPECT_EQ(store.DirectExtent(kJeep).size(), 1u);
  EXPECT_TRUE(store.DirectExtent(kImported).empty());
  EXPECT_TRUE(store.HasMembership(b, kJeep));
  ASSERT_TRUE(store.RemoveMembership(b, kJeep).ok());
  EXPECT_TRUE(store.RemoveMembership(b, kJeep).IsNotFound());
  EXPECT_TRUE(store.DirectExtent(kJeep).empty());
}

TEST(SlicingStoreTest, DestroyCleansExtentsAndArenas) {
  SlicingStore store;
  Oid o = store.CreateObject();
  ASSERT_TRUE(store.AddMembership(o, kCar).ok());
  ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(4)).ok());
  ASSERT_TRUE(store.SetValue(o, kImported, kNation, Value::Str("DE")).ok());
  ASSERT_TRUE(store.DestroyObject(o).ok());
  EXPECT_TRUE(store.DirectExtent(kCar).empty());
  SlicingStats stats = store.Stats();
  EXPECT_EQ(stats.conceptual_objects, 0u);
  EXPECT_EQ(stats.implementation_objects, 0u);
}

TEST(SlicingStoreTest, ClusteredScanVisitsClassSlices) {
  SlicingStore store;
  std::set<Oid> expect;
  for (int i = 0; i < 10; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(i)).ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(store.SetValue(o, kJeep, kNation, Value::Str("US")).ok());
      expect.insert(o);
    }
  }
  std::set<Oid> seen;
  store.ForEachSlice(kJeep, [&](Oid o,
                                const std::unordered_map<uint64_t, Value>&) {
    seen.insert(o);
  });
  EXPECT_EQ(seen, expect);
}

TEST(SlicingStoreTest, SwapRemoveKeepsIndexesConsistent) {
  SlicingStore store;
  std::vector<Oid> oids;
  for (int i = 0; i < 20; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(i)).ok());
    oids.push_back(o);
  }
  // Remove from the middle; survivors must still read their own values.
  for (int i = 0; i < 20; i += 3) {
    ASSERT_TRUE(store.RemoveSlice(oids[i], kCar).ok());
  }
  for (int i = 0; i < 20; ++i) {
    Value v = store.GetValue(oids[i], kCar, kWheels).value();
    if (i % 3 == 0) {
      EXPECT_EQ(v, Value::Null());
    } else {
      EXPECT_EQ(v, Value::Int(i));
    }
  }
}

TEST(SlicingStoreTest, StatsMatchTable1Formulas) {
  SlicingStore store;
  // 4 objects, each with 3 implementation objects.
  for (int i = 0; i < 4; ++i) {
    Oid o = store.CreateObject();
    ASSERT_TRUE(store.AddSlice(o, kCar).ok());
    ASSERT_TRUE(store.AddSlice(o, kJeep).ok());
    ASSERT_TRUE(store.AddSlice(o, kImported).ok());
  }
  SlicingStats stats = store.Stats();
  EXPECT_EQ(stats.conceptual_objects, 4u);
  EXPECT_EQ(stats.implementation_objects, 12u);
  // (1 + N_impl) oids per object = 4 * (1 + 3).
  EXPECT_EQ(stats.total_oids, 16u);
  // (1+N)*sizeof(oid) + N*2*sizeof(ptr) per object.
  size_t per_object = (1 + 3) * sizeof(uint64_t) + 3 * 2 * sizeof(void*);
  EXPECT_EQ(stats.managerial_bytes, 4 * per_object);
}

TEST(SlicingStoreTest, ImplOidsAreDistinctFromConceptualOids) {
  SlicingStore store;
  Oid o = store.CreateObject();
  ASSERT_TRUE(store.AddSlice(o, kCar).ok());
  Oid impl = store.SliceImplOid(o, kCar).value();
  EXPECT_NE(impl, o);
  EXPECT_TRUE(store.SliceImplOid(o, kJeep).status().IsNotFound());
}

TEST(SlicingStoreTest, MutationCountOnlyBumpsOnStateChange) {
  SlicingStore store;
  Oid o = store.CreateObject();
  ASSERT_TRUE(store.AddMembership(o, kCar).ok());
  ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(4)).ok());
  uint64_t count = store.mutation_count();

  // Failed writes leave the count alone.
  EXPECT_TRUE(store.DestroyObject(Oid(999)).IsNotFound());
  EXPECT_TRUE(store.CreateObjectWithOid(o).IsAlreadyExists());
  EXPECT_TRUE(store.RemoveMembership(o, kJeep).IsNotFound());
  EXPECT_TRUE(store.RemoveSlice(o, kImported).IsNotFound());
  EXPECT_EQ(store.mutation_count(), count);

  // No-op writes (state unchanged) leave it alone too.
  ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(4)).ok());
  ASSERT_TRUE(store.AddMembership(o, kCar).ok());
  EXPECT_EQ(store.mutation_count(), count);

  // Real state changes bump it.
  ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(6)).ok());
  EXPECT_GT(store.mutation_count(), count);
}

TEST(SlicingStoreTest, ChangeJournalRecordsDeltas) {
  SlicingStore store;
  uint64_t cursor = store.journal_head();

  Oid o = store.CreateObject();
  ASSERT_TRUE(store.AddMembership(o, kCar).ok());
  ASSERT_TRUE(store.SetValue(o, kCar, kWheels, Value::Int(4)).ok());
  ASSERT_TRUE(store.RemoveMembership(o, kCar).ok());

  std::vector<ChangeRecord> recs;
  ASSERT_TRUE(store.ChangesSince(cursor, &recs));
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].kind, ChangeRecord::Kind::kObjectCreated);
  EXPECT_EQ(recs[0].oid, o);
  EXPECT_EQ(recs[1].kind, ChangeRecord::Kind::kMembershipAdded);
  EXPECT_EQ(recs[1].cls, kCar);
  EXPECT_EQ(recs[2].kind, ChangeRecord::Kind::kValueChanged);
  EXPECT_EQ(recs[2].cls, kCar);
  EXPECT_EQ(recs[2].prop, kWheels);
  EXPECT_EQ(recs[3].kind, ChangeRecord::Kind::kMembershipRemoved);
  // Sequence numbers are strictly increasing.
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_GT(recs[i].seq, recs[i - 1].seq);
  }

  // Caught up: true with no records.
  cursor = store.journal_head();
  recs.clear();
  EXPECT_TRUE(store.ChangesSince(cursor, &recs));
  EXPECT_TRUE(recs.empty());

  // Destroy journals each membership loss, then the destruction.
  ASSERT_TRUE(store.AddMembership(o, kJeep).ok());
  cursor = store.journal_head();
  ASSERT_TRUE(store.DestroyObject(o).ok());
  recs.clear();
  ASSERT_TRUE(store.ChangesSince(cursor, &recs));
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].kind, ChangeRecord::Kind::kMembershipRemoved);
  EXPECT_EQ(recs[0].cls, kJeep);
  EXPECT_EQ(recs[1].kind, ChangeRecord::Kind::kObjectDestroyed);
}

TEST(SlicingStoreTest, ChangeJournalSignalsTrimmedGap) {
  SlicingStore store;
  Oid o = store.CreateObject();
  uint64_t cursor = store.journal_head();
  for (size_t i = 0; i <= SlicingStore::kJournalCapacity; ++i) {
    ASSERT_TRUE(
        store.SetValue(o, kCar, kWheels, Value::Int(static_cast<int64_t>(i)))
            .ok());
  }
  std::vector<ChangeRecord> recs;
  // The oldest record past the cursor was trimmed: consumers must fall
  // back to a full rebuild.
  EXPECT_FALSE(store.ChangesSince(cursor, &recs));
  // A cursor inside the retained window still streams.
  recs.clear();
  EXPECT_TRUE(store.ChangesSince(store.journal_head() - 10, &recs));
  EXPECT_EQ(recs.size(), 10u);
}

TEST(SlicingStoreTest, ChangeJournalOffsetsIntoTrimmedWindow) {
  // Past capacity the journal no longer starts at seq 1, so every cursor
  // is an offset into a shifted window.
  SlicingStore store;
  Oid o = store.CreateObject();
  for (size_t i = 0; i < SlicingStore::kJournalCapacity + 100; ++i) {
    ASSERT_TRUE(
        store.SetValue(o, kCar, kWheels, Value::Int(static_cast<int64_t>(i)))
            .ok());
  }
  const uint64_t head = store.journal_head();
  const uint64_t oldest = head - SlicingStore::kJournalCapacity + 1;
  auto expect_contiguous = [&](uint64_t cursor,
                               const std::vector<ChangeRecord>& recs) {
    ASSERT_EQ(recs.size(), head - cursor);
    for (size_t i = 0; i < recs.size(); ++i) {
      EXPECT_EQ(recs[i].seq, cursor + 1 + i);
    }
  };

  // A cursor in the middle of the window.
  std::vector<ChangeRecord> recs;
  const uint64_t middle = oldest + SlicingStore::kJournalCapacity / 2;
  ASSERT_TRUE(store.ChangesSince(middle, &recs));
  expect_contiguous(middle, recs);

  // A cursor just before the oldest retained record: the whole window.
  recs.clear();
  ASSERT_TRUE(store.ChangesSince(oldest - 1, &recs));
  expect_contiguous(oldest - 1, recs);
  EXPECT_EQ(recs.size(), SlicingStore::kJournalCapacity);

  // A cursor whose next record was trimmed.
  recs.clear();
  EXPECT_FALSE(store.ChangesSince(oldest - 2, &recs));
  EXPECT_TRUE(recs.empty());

  // A cursor that has caught up (or is ahead).
  EXPECT_TRUE(store.ChangesSince(head, &recs));
  EXPECT_TRUE(store.ChangesSince(head + 5, &recs));
  EXPECT_TRUE(recs.empty());
}

// Randomized consistency: mirror slice/value operations against a model.
TEST(SlicingStoreTest, RandomizedAgainstModel) {
  tse::Rng rng(77);
  SlicingStore store;
  struct ModelObj {
    std::map<uint64_t, std::map<uint64_t, Value>> slices;
  };
  std::map<uint64_t, ModelObj> model;
  std::vector<Oid> oids;
  for (int step = 0; step < 4000; ++step) {
    int op = static_cast<int>(rng.Uniform(5));
    if (op == 0 || oids.empty()) {
      Oid o = store.CreateObject();
      oids.push_back(o);
      model[o.value()] = {};
    } else {
      Oid o = oids[rng.Uniform(oids.size())];
      ClassId cls(1 + rng.Uniform(5));
      PropertyDefId def(100 + rng.Uniform(4));
      if (op == 1) {
        Value v = Value::Int(static_cast<int64_t>(rng.Uniform(1000)));
        ASSERT_TRUE(store.SetValue(o, cls, def, v).ok());
        model[o.value()].slices[cls.value()][def.value()] = v;
      } else if (op == 2) {
        Value got = store.GetValue(o, cls, def).value();
        auto& slices = model[o.value()].slices;
        Value want = Value::Null();
        auto sit = slices.find(cls.value());
        if (sit != slices.end()) {
          auto vit = sit->second.find(def.value());
          if (vit != sit->second.end()) want = vit->second;
        }
        ASSERT_EQ(got, want);
      } else if (op == 3) {
        Status s = store.RemoveSlice(o, cls);
        bool had = model[o.value()].slices.erase(cls.value()) > 0;
        ASSERT_EQ(s.ok(), had);
      } else if (op == 4 && oids.size() > 3) {
        size_t idx = rng.Uniform(oids.size());
        Oid victim = oids[idx];
        ASSERT_TRUE(store.DestroyObject(victim).ok());
        model.erase(victim.value());
        oids.erase(oids.begin() + static_cast<long>(idx));
      }
    }
  }
  // Final sweep: every modelled value must match.
  for (const auto& [raw, mobj] : model) {
    for (const auto& [cls, vals] : mobj.slices) {
      for (const auto& [def, want] : vals) {
        ASSERT_EQ(
            store.GetValue(Oid(raw), ClassId(cls), PropertyDefId(def)).value(),
            want);
      }
    }
  }
}

}  // namespace
}  // namespace tse::objmodel
