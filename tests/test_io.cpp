#include "src/graph/io.hpp"

#include <gtest/gtest.h>

#include "src/graph/generators.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

TEST(GraphIo, ParseBasic) {
  const Graph g = parse_edge_list("n 3\ne 0 1\ne 1 2\n");
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.id(0), 1u);
}

TEST(GraphIo, ParseWithIdsAndComments) {
  const Graph g = parse_edge_list(
      "# a triangle\n"
      "n 3\n"
      "id 0 10\n"
      "id 2 30\n"
      "\n"
      "e 0 1\ne 1 2\ne 0 2\n");
  EXPECT_EQ(g.id(0), 10u);
  EXPECT_EQ(g.id(1), 2u);  // default kept
  EXPECT_EQ(g.id(2), 30u);
}

TEST(GraphIo, ParseErrors) {
  EXPECT_THROW(parse_edge_list(""), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("e 0 1\n"), std::invalid_argument);          // missing n
  EXPECT_THROW(parse_edge_list("n 2\nn 2\n"), std::invalid_argument);       // duplicate n
  EXPECT_THROW(parse_edge_list("n 0\n"), std::invalid_argument);            // empty graph
  EXPECT_THROW(parse_edge_list("n 2\nx 0 1\n"), std::invalid_argument);     // bad directive
  EXPECT_THROW(parse_edge_list("n 2\ne 0\n"), std::invalid_argument);       // short edge
  EXPECT_THROW(parse_edge_list("n 2\ne 0 5\n"), std::out_of_range);         // endpoint
  EXPECT_THROW(parse_edge_list("n 2\nid 5 9\n"), std::invalid_argument);    // id range
  EXPECT_THROW(parse_edge_list("n 3 x\n"), std::invalid_argument);         // trailing text
  EXPECT_THROW(parse_edge_list("n 3\ne 1 2 junk\n"), std::invalid_argument);  // trailing text
  EXPECT_THROW(parse_edge_list("n 2\nid 0 -5\n"), std::invalid_argument);  // signed id
  EXPECT_THROW(parse_edge_list("n 2\nid 0\n"), std::invalid_argument);     // missing value
  EXPECT_THROW(parse_edge_list("n 2\ne +0 1\n"), std::invalid_argument);   // explicit sign
  try {
    parse_edge_list("n 2\n# comment\nid 5 9\n");
    FAIL() << "id 5 9 on a 2-vertex graph was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at line 3"), std::string::npos) << e.what();
  }
  // Zero and colliding IDs name the id line that introduces them, including a
  // collision with another vertex's default ID (vertex 1 defaults to 2).
  const std::pair<const char*, const char*> id_errors[] = {
      {"n 3\nid 0 0\n", "at line 2"},
      {"n 3\nid 0 7\nid 1 7\n", "at line 3"},
      {"n 3\nid 0 2\n", "at line 2"},
  };
  for (const auto& [text, where] : id_errors) {
    try {
      parse_edge_list(text);
      FAIL() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    }
  }
  // A later line may move a vertex off a colliding ID.
  EXPECT_EQ(parse_edge_list("n 3\nid 0 2\nid 1 9\n").id(1), 9u);
}

TEST(GraphIo, RoundTripRandom) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_random_connected(2 + rng.index(20), 0.3, rng);
    assign_random_ids(g, rng);
    const Graph back = parse_edge_list(to_edge_list(g));
    EXPECT_EQ(back.vertex_count(), g.vertex_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
    for (auto [u, v] : g.edges()) EXPECT_TRUE(back.has_edge(u, v));
    for (Vertex v = 0; v < g.vertex_count(); ++v) EXPECT_EQ(back.id(v), g.id(v));
  }
}

TEST(GraphIo, DotContainsAllEdges) {
  const Graph g = make_cycle(4);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph lcert {"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v3"), std::string::npos);  // edges render with u < v
  EXPECT_NE(dot.find("label=\"1\""), std::string::npos);
}

}  // namespace
}  // namespace lcert
