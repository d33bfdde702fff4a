#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "gen/paper_example.h"
#include "rdf/graph.h"
#include "rdf/graph_stats.h"
#include "rdf/vocabulary.h"

namespace rdfsum {
namespace {

TEST(GraphTest, RoutesTriplesToComponents) {
  Graph g;
  Dictionary& d = g.dict();
  const Vocabulary& v = g.vocab();
  TermId s = d.EncodeIri("s"), p = d.EncodeIri("p"), o = d.EncodeIri("o");
  TermId c1 = d.EncodeIri("C1"), c2 = d.EncodeIri("C2");

  g.Add({s, p, o});
  g.Add({s, v.rdf_type, c1});
  g.Add({c1, v.subclass, c2});
  g.Add({p, v.domain, c1});
  g.Add({p, v.range, c2});
  g.Add({p, v.subproperty, d.EncodeIri("p2")});

  EXPECT_EQ(g.data().size(), 1u);
  EXPECT_EQ(g.types().size(), 1u);
  EXPECT_EQ(g.schema().size(), 4u);
  EXPECT_EQ(g.NumTriples(), 6u);
}

TEST(GraphTest, AddDeduplicates) {
  Graph g;
  TermId s = g.dict().EncodeIri("s"), p = g.dict().EncodeIri("p"),
         o = g.dict().EncodeIri("o");
  EXPECT_TRUE(g.Add({s, p, o}));
  EXPECT_FALSE(g.Add({s, p, o}));
  EXPECT_EQ(g.NumTriples(), 1u);
  EXPECT_TRUE(g.Contains({s, p, o}));
}

TEST(GraphTest, AddTermsAndIris) {
  Graph g;
  EXPECT_TRUE(g.AddIris("http://s", "http://p", "http://o"));
  EXPECT_TRUE(g.AddTerms(Term::Iri("http://s"), Term::Iri("http://p"),
                         Term::Literal("lit")));
  EXPECT_FALSE(g.AddIris("http://s", "http://p", "http://o"));
  EXPECT_EQ(g.data().size(), 2u);
}

TEST(GraphTest, CloneSharesDictionaryCopiesTriples) {
  Graph g;
  g.AddIris("a", "p", "b");
  Graph copy = g.Clone();
  EXPECT_EQ(copy.NumTriples(), 1u);
  EXPECT_EQ(&copy.dict(), &g.dict());
  copy.AddIris("a", "p", "c");
  EXPECT_EQ(copy.NumTriples(), 2u);
  EXPECT_EQ(g.NumTriples(), 1u);
}

TEST(GraphTest, AddAllMerges) {
  Graph g;
  g.AddIris("a", "p", "b");
  Graph other(g.dict_ptr());
  other.AddIris("a", "p", "c");
  other.AddIris("a", "p", "b");
  g.AddAll(other);
  EXPECT_EQ(g.NumTriples(), 2u);
}

TEST(GraphTest, ForEachTripleVisitsAllComponents) {
  gen::BookExample ex = gen::BuildBookExample();
  size_t count = 0;
  ex.graph.ForEachTriple([&](const Triple&) { ++count; });
  EXPECT_EQ(count, ex.graph.NumTriples());
  EXPECT_EQ(count, 9u);  // 4 data + 1 type + 4 schema
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(g.Empty());
  EXPECT_EQ(g.NumTriples(), 0u);
  GraphStats st = ComputeGraphStats(g);
  EXPECT_EQ(st.num_nodes, 0u);
  EXPECT_EQ(st.num_edges, 0u);
}

// ---------------------------------------------------------------- stats

TEST(GraphStatsTest, Figure2Counts) {
  gen::Figure2Example ex = gen::BuildFigure2();
  GraphStats st = ComputeGraphStats(ex.graph);
  EXPECT_EQ(st.num_data_edges, 12u);
  EXPECT_EQ(st.num_type_edges, 4u);
  EXPECT_EQ(st.num_schema_edges, 0u);
  EXPECT_EQ(st.num_edges, 16u);
  // Data nodes: r1..r6, a1,a2, t1..t4, e1,e2, c1 = 15.
  EXPECT_EQ(st.num_data_nodes, 15u);
  // Classes: Book, Journal, Spec.
  EXPECT_EQ(st.num_class_nodes, 3u);
  EXPECT_EQ(st.num_nodes, 18u);
  EXPECT_EQ(st.num_distinct_data_properties, 6u);
  EXPECT_EQ(st.num_typed_resources, 4u);   // r1, r2, r5, r6
  EXPECT_EQ(st.num_untyped_resources, 11u);
}

TEST(GraphStatsTest, BookExampleNodeClassification) {
  gen::BookExample ex = gen::BuildBookExample();
  GraphStats st = ComputeGraphStats(ex.graph);
  EXPECT_EQ(st.num_data_edges, 4u);
  EXPECT_EQ(st.num_type_edges, 1u);
  EXPECT_EQ(st.num_schema_edges, 4u);
  // writtenBy appears in ≺sp/←↩d/↪→r subjects; hasAuthor in ≺sp object.
  EXPECT_EQ(st.num_property_nodes, 2u);
  EXPECT_EQ(st.num_class_nodes, 1u);  // only Book is used in a type triple
}

TEST(GraphStatsTest, DataNodesHelper) {
  gen::Figure2Example ex = gen::BuildFigure2();
  auto nodes = DataNodes(ex.graph);
  EXPECT_EQ(nodes.size(), 15u);
  EXPECT_TRUE(nodes.count(ex.r6));  // typed-only resources are data nodes
  EXPECT_FALSE(nodes.count(ex.book));
}

TEST(GraphStatsTest, TypedResourcesHelper) {
  gen::Figure2Example ex = gen::BuildFigure2();
  auto typed = TypedResources(ex.graph);
  EXPECT_EQ(typed.size(), 4u);
  EXPECT_TRUE(typed.count(ex.r1));
  EXPECT_TRUE(typed.count(ex.r6));
  EXPECT_FALSE(typed.count(ex.r3));
}

TEST(GraphStatsTest, ToStringMentionsCounts) {
  gen::Figure2Example ex = gen::BuildFigure2();
  std::string s = ComputeGraphStats(ex.graph).ToString();
  EXPECT_NE(s.find("edges=16"), std::string::npos);
}

// ---------------------------------------------------------------- well-behaved

TEST(GraphTest, AllZeroTripleIsAnOrdinaryMember) {
  // {0,0,0} marks an empty slot inside the flat triple set; membership of
  // the triple itself is tracked apart, so Add/Contains stay exact for it.
  Graph g;
  const Triple zero{0, 0, 0};
  EXPECT_FALSE(g.Contains(zero));
  EXPECT_TRUE(g.Add(zero));
  EXPECT_TRUE(g.Contains(zero));
  EXPECT_FALSE(g.Add(zero));
  EXPECT_EQ(g.NumTriples(), 1u);
  EXPECT_FALSE(g.Empty());
  // Triples with some zero ids are stored in slots like any other.
  EXPECT_TRUE(g.Add({0, 0, 1}));
  EXPECT_TRUE(g.Add({1, 0, 0}));
  EXPECT_FALSE(g.Add({0, 0, 1}));
  EXPECT_EQ(g.NumTriples(), 3u);
  EXPECT_TRUE(g.Contains(zero));
  EXPECT_FALSE(g.Contains({0, 1, 0}));
}

TEST(GraphTest, RandomInsertsMatchAnOrderedSetOracle) {
  // Small id ranges force many duplicates; 20k distinct-ish inserts from an
  // empty set force every doubling from 16 slots up.
  Graph g;
  std::set<Triple> oracle;
  uint64_t state = 0x243f6a8885a308d3ULL;
  auto next = [&state](uint32_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<TermId>((state >> 33) % bound);
  };
  for (int i = 0; i < 40000; ++i) {
    const Triple t{next(64), next(8), next(64)};
    ASSERT_EQ(g.Add(t), oracle.insert(t).second) << "insert " << i;
    ASSERT_EQ(g.NumTriples(), oracle.size());
    const Triple probe{next(64), next(8), next(64)};
    ASSERT_EQ(g.Contains(probe), oracle.count(probe) > 0) << "probe " << i;
  }
  for (const Triple& t : oracle) ASSERT_TRUE(g.Contains(t));
  EXPECT_EQ(g.data().size() + g.types().size() + g.schema().size(),
            oracle.size());
}

TEST(GraphTest, ReserveNeverShrinks) {
  Graph g;
  g.Reserve(10000);
  const size_t reserved = g.ReservedTriples();
  EXPECT_GE(reserved, 10000u);
  g.Reserve(10);
  EXPECT_EQ(g.ReservedTriples(), reserved);
  for (TermId i = 1; i <= 5000; ++i) g.Add({i, 1, 1});
  g.Reserve(0);
  EXPECT_EQ(g.ReservedTriples(), reserved);
  g.Reserve(reserved + 1);
  EXPECT_GT(g.ReservedTriples(), reserved);
  for (TermId i = 1; i <= 5000; ++i) EXPECT_TRUE(g.Contains({i, 1, 1}));
}

TEST(GraphTest, CopiesAndClonesAreIndependent) {
  Graph g;
  TermId s = g.dict().EncodeIri("s"), p = g.dict().EncodeIri("p"),
         o = g.dict().EncodeIri("o"), o2 = g.dict().EncodeIri("o2");
  g.Add({s, p, o});
  g.Add({0, 0, 0});

  Graph copy = g;
  Graph clone = g.Clone();
  EXPECT_TRUE(copy.Add({s, p, o2}));
  EXPECT_FALSE(g.Contains({s, p, o2}));
  EXPECT_FALSE(clone.Contains({s, p, o2}));
  EXPECT_TRUE(clone.Add({o, p, s}));
  EXPECT_FALSE(g.Contains({o, p, s}));
  EXPECT_FALSE(copy.Contains({o, p, s}));
  for (const Graph* x : {&g, &copy, &clone}) {
    EXPECT_TRUE(x->Contains({s, p, o}));
    EXPECT_TRUE(x->Contains({0, 0, 0}));
  }
  EXPECT_EQ(g.NumTriples(), 2u);
  EXPECT_EQ(copy.NumTriples(), 3u);
  EXPECT_EQ(clone.NumTriples(), 3u);
  EXPECT_EQ(&clone.dict(), &g.dict());  // the dictionary stays shared
}

TEST(WellBehavedTest, AcceptsCleanGraphs) {
  gen::Figure2Example ex = gen::BuildFigure2();
  EXPECT_TRUE(CheckWellBehaved(ex.graph).ok());
  gen::BookExample book = gen::BuildBookExample();
  EXPECT_TRUE(CheckWellBehaved(book.graph).ok());
}

TEST(WellBehavedTest, RejectsClassAsProperty) {
  Graph g;
  Dictionary& d = g.dict();
  TermId s = d.EncodeIri("s"), c = d.EncodeIri("C"), o = d.EncodeIri("o");
  g.Add({s, g.vocab().rdf_type, c});
  g.Add({s, c, o});  // class in property position
  EXPECT_FALSE(CheckWellBehaved(g).ok());
}

TEST(WellBehavedTest, RejectsClassWithDataProperty) {
  Graph g;
  Dictionary& d = g.dict();
  TermId s = d.EncodeIri("s"), c = d.EncodeIri("C"), p = d.EncodeIri("p");
  g.Add({s, g.vocab().rdf_type, c});
  g.Add({c, p, d.EncodeIri("o")});
  EXPECT_FALSE(CheckWellBehaved(g).ok());
}

TEST(WellBehavedTest, RejectsTypedClass) {
  Graph g;
  Dictionary& d = g.dict();
  TermId s = d.EncodeIri("s"), c1 = d.EncodeIri("C1"), c2 = d.EncodeIri("C2");
  g.Add({s, g.vocab().rdf_type, c1});
  g.Add({c1, g.vocab().rdf_type, c2});
  EXPECT_FALSE(CheckWellBehaved(g).ok());
}

TEST(WellBehavedTest, SubclassHierarchyClassesAreKnown) {
  Graph g;
  Dictionary& d = g.dict();
  TermId s = d.EncodeIri("s"), c1 = d.EncodeIri("C1"), c2 = d.EncodeIri("C2");
  TermId p = d.EncodeIri("p");
  g.Add({c1, g.vocab().subclass, c2});
  g.Add({s, p, d.EncodeIri("o")});
  EXPECT_TRUE(CheckWellBehaved(g).ok());
  // c2 only appears in the subclass triple, but it is a class: using it as
  // a data object must be flagged.
  g.Add({s, p, c2});
  EXPECT_FALSE(CheckWellBehaved(g).ok());
}

}  // namespace
}  // namespace rdfsum
