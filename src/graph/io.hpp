// Graph serialization: a small text format for instances and DOT export for
// inspection. Used by the CLI example and handy for bug reports.
//
// Text format ("lcert edge list"):
//   n <vertex_count>
//   [id <v> <identifier>]*     optional explicit IDs (default 1..n)
//   e <u> <v>                  one line per edge, 0-based endpoints
//   # comment lines and blank lines are ignored
// Every number is an unsigned decimal; a sign, a missing value or text after
// the last field is a parse error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "src/graph/graph.hpp"

namespace lcert {

/// Ceiling on every vertex count read from input: the `n` line of the
/// edge-list format, and the `n` argument of the CLI verbs. 2^24 =
/// 16,777,216 vertices is 128x the largest benchmark instance (131,071) and
/// turns a malformed or hostile count into a clean error instead of an
/// allocation failure.
inline constexpr std::size_t kMaxVertexCount = std::size_t{1} << 24;

/// Strict unsigned decimal: digits only — no sign, whitespace or trailing
/// text, not empty. nullopt on anything else, or on overflow.
std::optional<std::uint64_t> parse_decimal(std::string_view text);

/// parse_decimal for a command-line argument, in [min, max]. Throws
/// std::invalid_argument naming `what`; lcert_cli and the bench drivers turn
/// it into exit code 2.
std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t max = UINT64_MAX, std::uint64_t min = 0);

/// Parses the edge-list format; throws std::invalid_argument with a line
/// number on malformed input, including a vertex count above
/// kMaxVertexCount and an id line naming a vertex past n. An edge endpoint
/// past n throws std::out_of_range (from the Graph constructor).
Graph parse_edge_list(std::istream& in);
Graph parse_edge_list(const std::string& text);

/// Writes the same format (IDs included when not the default 1..n).
std::string to_edge_list(const Graph& g);

/// Graphviz DOT (undirected), with vertex IDs as labels.
std::string to_dot(const Graph& g);

/// File round-trip for `.lcg` repro files (the edge-list format above). The
/// fuzz campaign writes shrunk counterexamples with save_graph; load_graph
/// feeds them back into tests. Throws std::runtime_error on I/O failure and
/// std::invalid_argument on malformed content.
void save_graph(const Graph& g, const std::string& path);
Graph load_graph(const std::string& path);

}  // namespace lcert
