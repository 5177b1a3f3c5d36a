#include "common/csv.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mvcom::common {

namespace {

constexpr char kSep = ',';

bool is_newline(char c) { return c == '\n' || c == '\r'; }

/// Parses one record starting at text[pos], advancing pos past the record's
/// terminating newline (LF, CRLF, or CR) or to end-of-input. Quoted fields
/// may contain separators, quotes (doubled), and newlines.
CsvRow parse_record(std::string_view text, std::size_t& pos) {
  CsvRow fields;
  std::string field;
  for (;;) {
    field.clear();
    if (pos < text.size() && text[pos] == '"') {
      ++pos;  // opening quote
      for (;;) {
        if (pos >= text.size()) {
          throw std::invalid_argument("unterminated quoted CSV field");
        }
        const char c = text[pos++];
        if (c == '"') {
          if (pos < text.size() && text[pos] == '"') {
            field += '"';  // "" escape
            ++pos;
          } else {
            break;  // closing quote
          }
        } else {
          field += c;
        }
      }
      if (pos < text.size() && text[pos] != kSep && !is_newline(text[pos])) {
        throw std::invalid_argument(
            "unexpected character after closing quote in CSV field");
      }
    } else {
      while (pos < text.size() && text[pos] != kSep &&
             !is_newline(text[pos])) {
        if (text[pos] == '"') {
          throw std::invalid_argument(
              "stray quote inside unquoted CSV field");
        }
        field += text[pos++];
      }
    }
    fields.push_back(field);
    if (pos >= text.size()) return fields;
    if (text[pos] == kSep) {
      ++pos;
      continue;
    }
    // Record terminator: LF, CRLF, or bare CR.
    if (text[pos] == '\r') {
      ++pos;
      if (pos < text.size() && text[pos] == '\n') ++pos;
    } else {
      ++pos;  // '\n'
    }
    return fields;
  }
}

}  // namespace

std::string escape_csv_field(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvRow parse_csv_line(std::string_view line) {
  std::size_t pos = 0;
  CsvRow row = parse_record(line, pos);
  if (pos != line.size()) {
    // A record terminator mid-line means the "line" held embedded newlines.
    throw std::invalid_argument(
        "parse_csv_line: embedded newline (multi-line records need read_csv)");
  }
  return row;
}

CsvFile read_csv(const std::filesystem::path& path, bool expect_header) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open CSV file: " + path.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  CsvFile file;
  std::size_t pos = 0;
  std::size_t arity = 0;
  bool first = true;
  while (pos < text.size()) {
    if (is_newline(text[pos])) {  // blank line between records
      if (text[pos] == '\r' && pos + 1 < text.size() &&
          text[pos + 1] == '\n') {
        ++pos;
      }
      ++pos;
      continue;
    }
    CsvRow row = parse_record(text, pos);
    if (first) {
      arity = row.size();
      first = false;
      if (expect_header) {
        file.header = std::move(row);
        continue;
      }
    } else if (row.size() != arity) {
      throw std::runtime_error("inconsistent CSV arity in " + path.string());
    }
    file.rows.push_back(std::move(row));
  }
  return file;
}

void append_csv_row(std::string& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += kSep;
    out += escape_csv_field(fields[i]);
  }
  out += '\n';
}

bool write_text_file(const std::filesystem::path& path,
                     std::string_view content, std::string* error) {
  std::ofstream out(path, std::ios::binary);
  if (out) out << content << std::flush;
  if (out) return true;
  if (error != nullptr) *error = "cannot write " + path.string();
  return false;
}

}  // namespace mvcom::common
