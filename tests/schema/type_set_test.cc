#include "schema/type_set.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "schema/schema_graph.h"

namespace tse::schema {
namespace {

const PropertyDefId kA(1), kB(2), kC(3);

TEST(TypeSetTest, AddAndLookup) {
  TypeSet t;
  t.Add("age", kA);
  EXPECT_TRUE(t.ContainsName("age"));
  EXPECT_TRUE(t.Contains("age", kA));
  EXPECT_FALSE(t.Contains("age", kB));
  EXPECT_EQ(t.Lookup("age").value(), kA);
  EXPECT_TRUE(t.Lookup("ghost").status().IsNotFound());
}

TEST(TypeSetTest, DuplicateAddCollapses) {
  TypeSet t;
  t.Add("age", kA);
  t.Add("age", kA);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FALSE(t.IsAmbiguous("age"));
}

TEST(TypeSetTest, AmbiguityFromTwoDefs) {
  TypeSet t;
  t.Add("salary", kA);
  t.Add("salary", kB);
  EXPECT_TRUE(t.IsAmbiguous("salary"));
  // Lookup refuses ambiguous names (paper: rename to disambiguate).
  EXPECT_EQ(t.Lookup("salary").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.AllOf("salary").size(), 2u);
}

TEST(TypeSetTest, OverrideReplacesAllBindings) {
  TypeSet t;
  t.Add("salary", kA);
  t.Add("salary", kB);
  t.Override("salary", kC);
  EXPECT_FALSE(t.IsAmbiguous("salary"));
  EXPECT_EQ(t.Lookup("salary").value(), kC);
}

TEST(TypeSetTest, RemoveNameAndBinding) {
  TypeSet t;
  t.Add("x", kA);
  t.Add("x", kB);
  EXPECT_TRUE(t.Remove("x", kA));
  EXPECT_FALSE(t.Remove("x", kA));
  EXPECT_EQ(t.Lookup("x").value(), kB);
  EXPECT_TRUE(t.RemoveName("x"));
  EXPECT_FALSE(t.RemoveName("x"));
  EXPECT_TRUE(t.empty());
}

TEST(TypeSetTest, MergePreservesAmbiguity) {
  TypeSet a, b;
  a.Add("x", kA);
  b.Add("x", kB);
  b.Add("y", kC);
  a.MergeFrom(b);
  EXPECT_TRUE(a.IsAmbiguous("x"));
  EXPECT_EQ(a.Lookup("y").value(), kC);
  EXPECT_EQ(a.size(), 3u);
}

TEST(TypeSetTest, CoversNamesIgnoresDefIdentity) {
  TypeSet sub, sup;
  sup.Add("name", kA);
  sub.Add("name", kB);  // override: different def, same name
  sub.Add("extra", kC);
  EXPECT_TRUE(sub.CoversNamesOf(sup));
  EXPECT_FALSE(sup.CoversNamesOf(sub));
  TypeSet empty;
  EXPECT_TRUE(empty.CoversNamesOf(empty));
  EXPECT_TRUE(sub.CoversNamesOf(empty));
}

TEST(TypeSetTest, EqualityIsStrictOnDefs) {
  TypeSet a, b;
  a.Add("x", kA);
  b.Add("x", kB);
  EXPECT_NE(a, b);
  b.RemoveName("x");
  b.Add("x", kA);
  EXPECT_EQ(a, b);
}

TEST(TypeSetTest, NamesSortedAndToString) {
  TypeSet t;
  t.Add("b", kB);
  t.Add("a", kA);
  auto names = t.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(t.ToString(), "a(1), b(2)");
}

/// The names-first test without the signature: every name of `other` is
/// among the names of `mine` (both sorted).
bool ReferenceCovers(const TypeSet& mine, const TypeSet& other) {
  const std::vector<std::string> a = mine.Names(), b = other.Names();
  return std::includes(a.begin(), a.end(), b.begin(), b.end());
}

/// A name pool in which several names share each of a few signature
/// bits, so the signature alone cannot tell them apart.
std::vector<std::string> CollidingNames() {
  std::map<uint64_t, std::vector<std::string>> by_bit;
  for (int i = 0; i < 400; ++i) {
    std::string name = "p" + std::to_string(i);
    by_bit[TypeSet::NameBit(name)].push_back(name);
  }
  std::vector<std::string> pool;
  for (const auto& [bit, names] : by_bit) {
    if (names.size() < 3) continue;
    pool.insert(pool.end(), names.begin(), names.begin() + 3);
    if (pool.size() >= 12) break;
  }
  return pool;
}

/// One random mutation drawn from every TypeSet mutator.
void Mutate(Rng* rng, const std::vector<std::string>& pool,
            std::vector<TypeSet>* sets) {
  TypeSet& t = (*sets)[rng->Uniform(sets->size())];
  const std::string& name = pool[rng->Uniform(pool.size())];
  const PropertyDefId def(1 + rng->Uniform(3));
  switch (rng->Uniform(5)) {
    case 0:
      t.Add(name, def);
      break;
    case 1:
      t.Override(name, def);
      break;
    case 2:
      t.RemoveName(name);
      break;
    case 3:
      t.Remove(name, def);
      break;
    default:
      t.MergeFrom((*sets)[rng->Uniform(sets->size())]);
      break;
  }
}

TEST(TypeSetTest, SignaturePrefilterAgreesWithNameMerge) {
  const std::vector<std::string> pool = CollidingNames();
  ASSERT_GE(pool.size(), 6u);
  ASSERT_EQ(TypeSet::NameBit(pool[0]), TypeSet::NameBit(pool[1]));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<TypeSet> sets(5);
    for (int step = 0; step < 300; ++step) {
      Mutate(&rng, pool, &sets);
      for (const TypeSet& a : sets) {
        for (const TypeSet& b : sets) {
          ASSERT_EQ(a.CoversNamesOf(b), ReferenceCovers(a, b))
              << "seed " << seed << " step " << step << ": " << a.ToString()
              << " vs " << b.ToString();
        }
      }
    }
  }
}

TEST(TypeSetTest, SignatureForgetsRemovedNamesOnly) {
  const std::vector<std::string> pool = CollidingNames();
  // pool[0] and pool[1] share a bit: removing one keeps the bit.
  TypeSet t;
  t.Add(pool[0], kA);
  t.Add(pool[1], kB);
  const uint64_t bit = TypeSet::NameBit(pool[0]);
  EXPECT_TRUE(t.RemoveName(pool[0]));
  EXPECT_EQ(t.name_signature() & bit, bit);
  EXPECT_TRUE(t.Remove(pool[1], kB));
  EXPECT_EQ(t.name_signature(), 0u);
  TypeSet one;
  one.Add(pool[1], kC);
  EXPECT_FALSE(t.CoversNamesOf(one));
}

TEST(TypeSetTest, MemoizedTypesKeepTheirSignatures) {
  // Types handed out by the graph's memo, and copies of them mutated
  // afterwards, answer the names-first test like a name merge.
  const std::vector<std::string> pool = CollidingNames();
  SchemaGraph graph;
  std::vector<ClassId> classes;
  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    std::vector<PropertySpec> props;
    for (int k = 0; k < 3; ++k) {
      props.push_back(PropertySpec::Attribute(
          pool[rng.Uniform(pool.size())] + (i % 2 ? "" : "_" + std::to_string(i)),
          objmodel::ValueType::kInt));
    }
    std::vector<ClassId> supers;
    if (!classes.empty()) supers.push_back(classes[rng.Uniform(classes.size())]);
    auto added = graph.AddBaseClass("C" + std::to_string(i), supers, props);
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    classes.push_back(added.value());
  }
  std::vector<TypeSet> types;
  for (ClassId cls : classes) {
    types.push_back(graph.EffectiveType(cls).value());
    // The second read is a memo hit.
    EXPECT_EQ(graph.EffectiveType(cls).value(), types.back());
  }
  for (int step = 0; step < 200; ++step) {
    for (const TypeSet& a : types) {
      for (const TypeSet& b : types) {
        ASSERT_EQ(a.CoversNamesOf(b), ReferenceCovers(a, b))
            << "step " << step;
      }
    }
    Mutate(&rng, pool, &types);
  }
}

}  // namespace
}  // namespace tse::schema
