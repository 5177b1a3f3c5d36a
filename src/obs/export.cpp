#include "obs/export.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/csv.hpp"

namespace mvcom::obs {

namespace {

/// Prometheus sample-value spelling: decimal float, or +Inf/-Inf/NaN.
std::string fmt_value(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0.0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// JSON number or null (JSON has no NaN/Inf spellings).
std::string fmt_json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_help(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// `{k="v",...}` — with `extra` (the histogram `le`) appended when given.
std::string label_block(const std::vector<Label>& labels,
                        const Label* extra = nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  const auto append = [&](const Label& l) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += "=\"";
    out += escape_label_value(l.value);
    out += '"';
  };
  for (const Label& l : labels) append(l);
  if (extra != nullptr) append(*extra);
  out += '}';
  return out;
}

const char* type_name(MetricsRegistry::Type type) {
  switch (type) {
    case MetricsRegistry::Type::kCounter: return "counter";
    case MetricsRegistry::Type::kGauge: return "gauge";
    case MetricsRegistry::Type::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

std::string to_prometheus_text(const MetricsRegistry& registry) {
  const auto snapshots = registry.snapshot();
  std::string out;
  std::string current_family;
  for (const auto& m : snapshots) {
    if (m.name != current_family) {
      current_family = m.name;
      if (!m.help.empty()) {
        out += "# HELP " + m.name + ' ' + escape_help(m.help) + '\n';
      }
      out += "# TYPE " + m.name + ' ' + type_name(m.type) + '\n';
    }
    if (m.type == MetricsRegistry::Type::kHistogram) {
      for (const auto& bucket : m.buckets) {
        const Label le{"le", fmt_value(bucket.upper_bound)};
        out += m.name + "_bucket" + label_block(m.labels, &le) + ' ' +
               fmt_value(static_cast<double>(bucket.cumulative)) + '\n';
      }
      out += m.name + "_sum" + label_block(m.labels) + ' ' +
             fmt_value(m.sum) + '\n';
      out += m.name + "_count" + label_block(m.labels) + ' ' +
             fmt_value(static_cast<double>(m.count)) + '\n';
    } else {
      out += m.name + label_block(m.labels) + ' ' + fmt_value(m.value) + '\n';
    }
  }
  return out;
}

bool write_prometheus_text(const MetricsRegistry& registry,
                           const std::filesystem::path& path,
                           std::string* error) {
  const std::string text = to_prometheus_text(registry);
  return validate_prometheus_text(text, error) &&
         common::write_text_file(path, text, error);
}

namespace {

bool is_name_head(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool is_name_char(char c) {
  return is_name_head(c) || (c >= '0' && c <= '9');
}

/// Parses a metric/label name at text[pos]; advances pos past it.
bool scan_name(std::string_view text, std::size_t& pos, bool label_name) {
  if (pos >= text.size() || !is_name_head(text[pos])) return false;
  if (label_name && text[pos] == ':') return false;
  ++pos;
  while (pos < text.size() && is_name_char(text[pos]) &&
         !(label_name && text[pos] == ':')) {
    ++pos;
  }
  return true;
}

bool scan_sample_value(std::string_view token) {
  if (token.empty()) return false;
  if (token == "+Inf" || token == "-Inf" || token == "Inf" ||
      token == "NaN") {
    return true;
  }
  const std::string buf(token);
  char* end = nullptr;
  std::strtod(buf.c_str(), &end);
  return end != nullptr && *end == '\0' && end != buf.c_str();
}

bool validate_sample_line(std::string_view line, std::string* error) {
  std::size_t pos = 0;
  if (!scan_name(line, pos, /*label_name=*/false)) {
    if (error) *error = "bad metric name";
    return false;
  }
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      if (!scan_name(line, pos, /*label_name=*/true)) {
        if (error) *error = "bad label name";
        return false;
      }
      if (pos + 1 >= line.size() || line[pos] != '=' ||
          line[pos + 1] != '"') {
        if (error) *error = "label missing =\"";
        return false;
      }
      pos += 2;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\') {
          if (pos + 1 >= line.size()) {
            if (error) *error = "dangling escape in label value";
            return false;
          }
          const char esc = line[pos + 1];
          if (esc != '\\' && esc != '"' && esc != 'n') {
            if (error) *error = "bad escape in label value";
            return false;
          }
          ++pos;
        }
        ++pos;
      }
      if (pos >= line.size()) {
        if (error) *error = "unterminated label value";
        return false;
      }
      ++pos;  // closing quote
      if (pos < line.size() && line[pos] == ',') ++pos;  // separator/trailing
    }
    if (pos >= line.size()) {
      if (error) *error = "unterminated label block";
      return false;
    }
    ++pos;  // '}'
  }
  if (pos >= line.size() || (line[pos] != ' ' && line[pos] != '\t')) {
    if (error) *error = "missing value";
    return false;
  }
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  const std::size_t value_start = pos;
  while (pos < line.size() && line[pos] != ' ' && line[pos] != '\t') ++pos;
  if (!scan_sample_value(line.substr(value_start, pos - value_start))) {
    if (error) *error = "bad sample value";
    return false;
  }
  while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
  if (pos < line.size()) {
    // Optional timestamp: an integer (possibly signed).
    std::size_t ts = pos;
    if (line[ts] == '-' || line[ts] == '+') ++ts;
    if (ts == line.size()) {
      if (error) *error = "bad timestamp";
      return false;
    }
    for (; ts < line.size(); ++ts) {
      if (line[ts] < '0' || line[ts] > '9') {
        if (error) *error = "bad timestamp";
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool validate_prometheus_text(std::string_view text, std::string* error) {
  if (!text.empty() && text.back() != '\n') {
    if (error) *error = "text does not end with a newline";
    return false;
  }
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    ++line_no;
    const auto fail = [&](std::string_view why) {
      if (error) {
        *error = "line " + std::to_string(line_no) + ": " + std::string(why);
      }
      return false;
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) == 0) {
        std::size_t pos = 7;
        if (!scan_name(line, pos, false) ||
            (pos < line.size() && line[pos] != ' ')) {
          return fail("malformed HELP header");
        }
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        std::size_t pos = 7;
        if (!scan_name(line, pos, false) || pos >= line.size() ||
            line[pos] != ' ') {
          return fail("malformed TYPE header");
        }
        const std::string_view kind = line.substr(pos + 1);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          return fail("unknown TYPE");
        }
        continue;
      }
      continue;  // free-form comment
    }
    std::string why;
    if (!validate_sample_line(line, &why)) return fail(why);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Chrome trace-event JSON
// ---------------------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_chrome_trace_json(std::span<const TraceEvent> events) {
  // pid 1 = the simulated clock, pid 2 = the wall clock; every event lands
  // on the pid of its primary timestamp and carries the other clock in args.
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  out << R"j({"name":"process_name","ph":"M","pid":1,"tid":0,)j"
      << R"j("args":{"name":"sim time"}})j";
  out << R"j(,{"name":"process_name","ph":"M","pid":2,"tid":0,)j"
      << R"j("args":{"name":"wall clock"}})j";
  for (const TraceEvent& e : events) {
    const bool has_sim = !std::isnan(e.sim_time_seconds);
    const int pid = has_sim ? 1 : 2;
    double ts = has_sim ? e.sim_time_seconds * 1e6 : e.wall_time_us;
    // TraceRecorder::complete records at the END of a span; Chrome 'X'
    // events carry the start, so rewind by the duration.
    if (e.phase == 'X') ts -= e.duration_seconds * 1e6;
    out << ",{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
        << json_escape(e.category) << "\",\"ph\":\"" << e.phase
        << "\",\"pid\":" << pid << ",\"tid\":" << e.track
        << ",\"ts\":" << fmt_json_number(ts);
    if (e.phase == 'X') {
      out << ",\"dur\":" << fmt_json_number(e.duration_seconds * 1e6);
    }
    if (e.phase == 'i') {
      out << ",\"s\":\"t\"";  // thread-scoped instant
    }
    out << ",\"args\":{";
    bool first = true;
    for (std::size_t i = 0; i < e.arg_count(); ++i) {
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(e.args[i].key)
          << "\":" << fmt_json_number(e.args[i].value);
    }
    if (!first) out << ',';
    out << "\"wall_us\":" << fmt_json_number(e.wall_time_us);
    if (has_sim) {
      out << ",\"sim_s\":" << fmt_json_number(e.sim_time_seconds);
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

bool write_chrome_trace_json(const TraceRecorder& recorder,
                             const std::filesystem::path& path,
                             std::string* error) {
  const std::string json = to_chrome_trace_json(recorder.snapshot());
  return validate_json(json, error) &&
         common::write_text_file(path, json, error);
}

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness check
// ---------------------------------------------------------------------------

namespace {

struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool fail(std::string_view why) {
    error = std::string(why) + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return fail("bad literal");
    pos += word.size();
    return true;
  }
  [[nodiscard]] bool string() {
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("dangling escape");
        const char esc = text[pos];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos + static_cast<std::size_t>(i) >= text.size() ||
                std::isxdigit(static_cast<unsigned char>(
                    text[pos + static_cast<std::size_t>(i)])) == 0) {
              return fail("bad \\u escape");
            }
          }
          pos += 4;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return fail("bad escape");
        }
      } else if (static_cast<unsigned char>(text[pos]) < 0x20) {
        return fail("raw control character in string");
      }
      ++pos;
    }
    if (pos >= text.size()) return fail("unterminated string");
    ++pos;
    return true;
  }
  [[nodiscard]] bool number() {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return fail("expected number");
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    return true;
  }
  [[nodiscard]] bool value(int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return object(depth);
    if (c == '[') return array(depth);
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  [[nodiscard]] bool object(int depth) {
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
  [[nodiscard]] bool array(int depth) {
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }
};

}  // namespace

bool validate_json(std::string_view text, std::string* error) {
  JsonParser parser{text, 0, {}};
  if (!parser.value(0)) {
    if (error) *error = parser.error;
    return false;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error) *error = "trailing content after JSON value";
    return false;
  }
  return true;
}

}  // namespace mvcom::obs
