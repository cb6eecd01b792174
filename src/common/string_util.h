#ifndef KOLA_COMMON_STRING_UTIL_H_
#define KOLA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace kola {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single-character separator; does not trim, keeps empty parts.
std::vector<std::string> Split(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// `text` in single quotes, for an error message that echoes its input.
/// Text longer than kMaxQuotedBytes is cut there (at a UTF-8 character
/// boundary) and followed by "..." and its full byte length, e.g.
/// `'((((...' (120001 bytes)`, so an error never grows with its input.
inline constexpr size_t kMaxQuotedBytes = 160;
std::string QuoteForError(std::string_view text);

}  // namespace kola

#endif  // KOLA_COMMON_STRING_UTIL_H_
