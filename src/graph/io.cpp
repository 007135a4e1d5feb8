#include "src/graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace lcert {

std::optional<std::uint64_t> parse_decimal(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t max, std::uint64_t min) {
  const std::optional<std::uint64_t> value = parse_decimal(text);
  if (!value || *value < min || *value > max)
    throw std::invalid_argument(
        "invalid value '" + text + "' for " + what + ": expected " +
        (min == 0 && max == UINT64_MAX
             ? std::string("a non-negative integer")
             : "an integer in [" + std::to_string(min) + ", " + std::to_string(max) + "]"));
  return *value;
}

Graph parse_edge_list(std::istream& in) {
  std::size_t n = 0;
  bool have_n = false;
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::vector<std::tuple<Vertex, VertexId, std::size_t>> ids;  // (v, id, line)

  std::string line;
  std::size_t line_number = 0;
  auto fail = [&line_number](const std::string& message) -> void {
    throw std::invalid_argument("parse_edge_list: " + message + " at line " +
                                std::to_string(line_number));
  };
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#') continue;
    // Numeric fields are as strict as the CLI's: decimal digits only (no
    // sign), a value present, and nothing after the last field.
    const auto field = [&](const char* what) -> std::uint64_t {
      std::string text;
      ls >> text;
      const std::optional<std::uint64_t> value = parse_decimal(text);
      if (!value)
        fail(std::string("bad ") + what + (text.empty() ? " (missing)" : " '" + text + "'"));
      return *value;
    };
    const auto end_of_line = [&] {
      std::string extra;
      if (ls >> extra) fail("trailing text '" + extra + "' after '" + op + "' line");
    };
    if (op == "n") {
      if (have_n) fail("duplicate 'n' line");
      n = field("vertex count");
      end_of_line();
      if (n == 0) fail("bad vertex count '0'");
      if (n > kMaxVertexCount)
        fail("vertex count " + std::to_string(n) + " exceeds the ceiling of " +
             std::to_string(kMaxVertexCount));
      have_n = true;
    } else if (op == "e") {
      const Vertex u = field("edge endpoint");
      const Vertex v = field("edge endpoint");
      end_of_line();
      edges.emplace_back(u, v);
    } else if (op == "id") {
      const Vertex v = field("id vertex");
      const VertexId id = field("id value");
      end_of_line();
      if (id == 0) fail("bad id value '0' (IDs start at 1)");
      ids.emplace_back(v, id, line_number);
    } else {
      fail("unknown directive '" + op + "'");
    }
  }
  if (!have_n) {
    line_number = 0;
    fail("missing 'n' line");
  }
  Graph g(n, edges);
  if (!ids.empty()) {
    std::vector<VertexId> table(n);
    std::vector<std::size_t> set_at(n, 0);  // line that gave v its ID; 0 = default v+1
    for (Vertex v = 0; v < n; ++v) table[v] = v + 1;
    for (const auto& [v, id, id_line] : ids) {
      line_number = id_line;
      if (v >= n) fail("id vertex " + std::to_string(v) + " out of range");
      table[v] = id;
      set_at[v] = id_line;
    }
    // Later lines may reassign a vertex, so collisions are judged on the final
    // table. Sorted by (ID, line), each vertex that repeats its predecessor's
    // ID was given it no earlier than the predecessor, so its line is the one
    // that introduces the collision (a default ID has no line, 0); the
    // earliest such line is reported.
    std::vector<Vertex> by_id(n);
    std::iota(by_id.begin(), by_id.end(), Vertex{0});
    std::sort(by_id.begin(), by_id.end(), [&](Vertex a, Vertex b) {
      return std::pair(table[a], set_at[a]) < std::pair(table[b], set_at[b]);
    });
    line_number = 0;
    VertexId duplicate = 0;
    for (std::size_t i = 1; i < n; ++i) {
      const Vertex v = by_id[i];
      if (table[v] != table[by_id[i - 1]]) continue;
      if (line_number == 0 || set_at[v] < line_number) {
        line_number = set_at[v];
        duplicate = table[v];
      }
    }
    if (line_number != 0) fail("duplicate id value " + std::to_string(duplicate));
    g.set_ids(std::move(table));
  }
  return g;
}

Graph parse_edge_list(const std::string& text) {
  std::istringstream in(text);
  return parse_edge_list(in);
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << "n " << g.vertex_count() << "\n";
  bool default_ids = true;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    if (g.id(v) != v + 1) default_ids = false;
  if (!default_ids)
    for (Vertex v = 0; v < g.vertex_count(); ++v) os << "id " << v << ' ' << g.id(v) << "\n";
  for (auto [u, v] : g.edges()) os << "e " << u << ' ' << v << "\n";
  return os.str();
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_graph: cannot open " + path);
  out << to_edge_list(g);
  if (!out.flush()) throw std::runtime_error("save_graph: write failed for " + path);
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_graph: cannot open " + path);
  return parse_edge_list(in);
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "graph lcert {\n";
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    os << "  v" << v << " [label=\"" << g.id(v) << "\"];\n";
  for (auto [u, v] : g.edges()) os << "  v" << u << " -- v" << v << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace lcert
