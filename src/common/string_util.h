// Small string helpers used across the library.
#ifndef FIXY_COMMON_STRING_UTIL_H_
#define FIXY_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>

namespace fixy {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

bool EndsWith(std::string_view text, std::string_view suffix);

/// Formats a double compactly ("3.5", "0.123") with up to `precision`
/// significant digits, dropping trailing zeros.
std::string DoubleToString(double value, int precision = 12);

}  // namespace fixy

#endif  // FIXY_COMMON_STRING_UTIL_H_
