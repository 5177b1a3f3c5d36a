#pragma once
// RFC-4180-style CSV reading/writing for the transaction-trace dataset and
// the observability exports, and the checked text-file writer every file
// exporter uses. The dialect: fields are separated by commas; fields
// containing a comma, a double quote, or a newline are enclosed in double
// quotes, and an embedded quote is doubled (""). The reader is strict — a
// stray quote inside an unquoted field, text after a closing quote, or an
// unterminated quoted field throws rather than misparses.

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace mvcom::common {

/// One parsed CSV row.
using CsvRow = std::vector<std::string>;

/// Escapes one field for CSV output: returns the field quoted (with ""
/// escapes) when it contains a comma, a quote, or a CR/LF; verbatim
/// otherwise.
[[nodiscard]] std::string escape_csv_field(std::string_view field);

/// Parses a single physical line into comma-separated fields, honoring
/// RFC-4180 quoting. Throws std::invalid_argument on malformed quoting or on
/// embedded CR/LF (a quoted field spanning lines needs read_csv, which sees
/// the whole stream).
[[nodiscard]] CsvRow parse_csv_line(std::string_view line);

/// Reads an entire file. Quoted fields may span physical lines. If
/// `expect_header` is true the first record is treated as a header and
/// returned separately. Blank lines between records are skipped. Throws
/// std::runtime_error when the file cannot be opened or records have
/// inconsistent arity, std::invalid_argument on malformed quoting.
struct CsvFile {
  CsvRow header;            // empty when expect_header was false
  std::vector<CsvRow> rows;
};
[[nodiscard]] CsvFile read_csv(const std::filesystem::path& path,
                               bool expect_header);

/// The one CSV record encoder: appends `fields` to `out`, each through
/// escape_csv_field, joined by commas and ended by '\n', so read_csv
/// round-trips arbitrary field content (commas and newlines included).
void append_csv_row(std::string& out, const std::vector<std::string>& fields);

/// The checked file writer every exporter shares: writes `content` to
/// `path`, replacing the file. Returns false, with the reason in `error`
/// when non-null, if the file cannot be opened or the write comes up short;
/// the flush makes a short write (a full disk) show here rather than in a
/// destructor.
[[nodiscard]] bool write_text_file(const std::filesystem::path& path,
                                   std::string_view content,
                                   std::string* error = nullptr);

}  // namespace mvcom::common
