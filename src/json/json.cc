#include "json/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace fixy::json {

Type Value::type() const {
  switch (data_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kNumber;
    case 3:
      return Type::kString;
    case 4:
      return Type::kArray;
    case 5:
      return Type::kObject;
  }
  return Type::kNull;
}

bool Value::AsBool() const {
  FIXY_CHECK_MSG(is_bool(), "JSON value is not a bool");
  return std::get<bool>(data_);
}

double Value::AsDouble() const {
  FIXY_CHECK_MSG(is_number(), "JSON value is not a number");
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  FIXY_CHECK_MSG(is_string(), "JSON value is not a string");
  return std::get<std::string>(data_);
}

const Array& Value::AsArray() const {
  FIXY_CHECK_MSG(is_array(), "JSON value is not an array");
  return std::get<Array>(data_);
}

Array& Value::AsArray() {
  FIXY_CHECK_MSG(is_array(), "JSON value is not an array");
  return std::get<Array>(data_);
}

const Object& Value::AsObject() const {
  FIXY_CHECK_MSG(is_object(), "JSON value is not an object");
  return std::get<Object>(data_);
}

Object& Value::AsObject() {
  FIXY_CHECK_MSG(is_object(), "JSON value is not an object");
  return std::get<Object>(data_);
}

const Value* Value::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& obj = std::get<Object>(data_);
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

Result<bool> Value::GetBool(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::NotFound("missing key: " + key);
  if (!v->is_bool()) {
    return Status::InvalidArgument("key is not a bool: " + key);
  }
  return v->AsBool();
}

Result<double> Value::GetDouble(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::NotFound("missing key: " + key);
  if (!v->is_number()) {
    return Status::InvalidArgument("key is not a number: " + key);
  }
  return v->AsDouble();
}

Result<int64_t> Value::GetInt64(const std::string& key) const {
  FIXY_ASSIGN_OR_RETURN(double d, GetDouble(key));
  return ToInt64(d, key);
}

Result<int64_t> ToInt64(double number, const std::string& key) {
  // Both bounds are exact doubles, and NaN fails the range test.
  constexpr double kTwoTo63 = 9223372036854775808.0;
  if (!(number >= -kTwoTo63 && number < kTwoTo63) ||
      number != std::trunc(number)) {
    return Status::InvalidArgument("key is not a 64-bit integer: " + key);
  }
  return static_cast<int64_t>(number);
}

Result<std::string> Value::GetString(const std::string& key) const {
  const Value* v = Find(key);
  if (v == nullptr) return Status::NotFound("missing key: " + key);
  if (!v->is_string()) {
    return Status::InvalidArgument("key is not a string: " + key);
  }
  return v->AsString();
}

namespace {

// Recursive-descent JSON parser over a string_view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    FIXY_ASSIGN_OR_RETURN(Value v, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& message) const {
    // Compute line and column for the error position.
    int line = 1;
    int col = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    return Status::InvalidArgument(
        StrFormat("JSON parse error at line %d, column %d: %s", line, col,
                  message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  bool Consume(char expected) {
    if (!AtEnd() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue() {
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input");
    if (++depth_ > kMaxDepth) {
      --depth_;
      return Error("maximum nesting depth exceeded");
    }
    Result<Value> result = ParseValueInner();
    --depth_;
    return result;
  }

  Result<Value> ParseValueInner() {
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        if (ConsumeLiteral("true")) return Value(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Value(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Value(nullptr);
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseObject() {
    Consume('{');
    Object obj;
    SkipWhitespace();
    if (Consume('}')) return Value(std::move(obj));
    for (;;) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      FIXY_ASSIGN_OR_RETURN(Value key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      FIXY_ASSIGN_OR_RETURN(Value value, ParseValue());
      obj[key.AsString()] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Value(std::move(obj));
      return Error("expected ',' or '}' in object");
    }
  }

  // Bounded first-pass scan from just after '[': counts element-separating
  // commas (skipping strings and nested containers) up to the closing ']'
  // or the scan window, whichever comes first. The result is a capacity
  // hint — exact within the window, a lower bound past it — that lets
  // ParseArray reserve once instead of growth-doubling through the large
  // frame/observation arrays of scene files. Only used at shallow nesting
  // so hostile deeply-nested input cannot turn the scan quadratic.
  size_t EstimateArrayCount() const {
    size_t depth = 0;
    size_t commas = 0;
    bool in_string = false;
    bool escaped = false;
    const size_t end = std::min(text_.size(), pos_ + kArrayScanWindow);
    for (size_t i = pos_; i < end; ++i) {
      const char c = text_[i];
      if (in_string) {
        if (escaped) {
          escaped = false;
        } else if (c == '\\') {
          escaped = true;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      switch (c) {
        case '"':
          in_string = true;
          break;
        case '[':
        case '{':
          ++depth;
          break;
        case ']':
          if (depth == 0) return commas + 1;
          --depth;
          break;
        case '}':
          if (depth > 0) --depth;
          break;
        case ',':
          if (depth == 0) ++commas;
          break;
        default:
          break;
      }
    }
    return commas + 1;
  }

  Result<Value> ParseArray() {
    Consume('[');
    Array arr;
    SkipWhitespace();
    if (Consume(']')) return Value(std::move(arr));
    if (depth_ <= kArrayScanMaxDepth) arr.reserve(EstimateArrayCount());
    for (;;) {
      FIXY_ASSIGN_OR_RETURN(Value value, ParseValue());
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Value(std::move(arr));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<Value> ParseString() {
    Consume('"');
    std::string out;
    // The distance to the next quote bounds the decoded length (escapes
    // only shrink it), so one find() sizes the string up front.
    const size_t close = text_.find('"', pos_);
    if (close != std::string_view::npos) out.reserve(close - pos_);
    while (!AtEnd()) {
      const char c = text_[pos_++];
      if (c == '"') return Value(std::move(out));
      if (c == '\\') {
        if (AtEnd()) return Error("unterminated escape sequence");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Error("truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape digit");
              }
            }
            AppendUtf8(code, &out);
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return Error("unterminated string");
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    while (!AtEnd() && IsDigit(Peek())) ++pos_;
    if (Consume('.')) {
      while (!AtEnd() && IsDigit(Peek())) ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      while (!AtEnd() && IsDigit(Peek())) ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return Error("invalid number");
    const char* const last = token.data() + token.size();
    double value = 0.0;
    auto [end, ec] = std::from_chars(token.data(), last, value);
    if (ec == std::errc::result_out_of_range && end == last &&
        RoundsToZero(token)) {
      // Too small for a subnormal: ±0, the correctly rounded value (and
      // what strtod returns). Only overflow is an error.
      value = token.front() == '-' ? -0.0 : 0.0;
      ec = std::errc();
    }
    if (ec != std::errc() || end != last) {
      return Error("invalid number: " + std::string(token));
    }
    return Value(value);
  }

  // from_chars reports a value that rounds to zero and one that overflows
  // alike, as out of range. The decimal exponent of the token's leading
  // digit tells them apart: overflow needs it above 308 and rounding to
  // zero below -323, so its sign is enough. `token` is one from_chars
  // consumed whole, so it has a nonzero digit and exponent digits after
  // any 'e'.
  static bool RoundsToZero(std::string_view token) {
    size_t i = token.front() == '-' ? 1 : 0;
    int64_t lead = 0;  // the leading digit's decimal exponent, before e
    bool significant = false;
    bool fraction = false;
    for (; i < token.size() && token[i] != 'e' && token[i] != 'E'; ++i) {
      if (token[i] == '.') {
        fraction = true;
      } else if (!fraction) {
        if (significant) {
          ++lead;
        } else {
          significant = token[i] != '0';
        }
      } else if (!significant) {
        --lead;
        significant = token[i] != '0';
      }
    }
    // Saturate the exponent far past any document's digit count.
    constexpr int64_t kExponentCap = int64_t{1} << 50;
    int64_t exponent = 0;
    bool negative = false;
    if (i < token.size()) {
      ++i;
      if (token[i] == '+' || token[i] == '-') negative = token[i++] == '-';
      for (; i < token.size(); ++i) {
        exponent = std::min(exponent * 10 + (token[i] - '0'), kExponentCap);
      }
    }
    return lead + (negative ? -exponent : exponent) < 0;
  }

  static constexpr int kMaxDepth = 256;
  /// Capacity-hint scans only run this close to the document root (deep
  /// arrays are small in practice and rescanning them would compound).
  static constexpr int kArrayScanMaxDepth = 4;
  /// And never look further ahead than this many bytes, which also caps
  /// the reserve a lying prefix can provoke.
  static constexpr size_t kArrayScanWindow = size_t{1} << 16;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

void WriteEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat("\\u%04x", static_cast<unsigned char>(c)));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void WriteNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    // JSON has no NaN/Infinity literal. Emitting them would produce a
    // document our own parser rejects; emit null instead (documented on
    // Write() in json.h).
    out->append("null");
    return;
  }
  if (d == 0.0 && std::signbit(d)) {
    // The integral branch would print 0; "-0" parses back to -0.0.
    out->append("-0");
    return;
  }
  // Room for the longest %.17g text, e.g. "-2.2250738585072014e-308".
  char buf[32];
  std::to_chars_result written{};
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    // Integral value: emit without a decimal point.
    written = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    // Defined to print what printf's %.17g prints, in no locale.
    written = std::to_chars(buf, buf + sizeof(buf), d,
                            std::chars_format::general, 17);
  }
  out->append(buf, written.ptr);
}

void WriteValue(const Value& value, bool pretty, int indent,
                std::string* out) {
  const std::string pad(pretty ? static_cast<size_t>(indent) * 2 : 0, ' ');
  const std::string child_pad(pretty ? (static_cast<size_t>(indent) + 1) * 2
                                     : 0,
                              ' ');
  switch (value.type()) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(value.AsBool() ? "true" : "false");
      break;
    case Type::kNumber:
      WriteNumber(value.AsDouble(), out);
      break;
    case Type::kString:
      WriteEscaped(value.AsString(), out);
      break;
    case Type::kArray: {
      const Array& arr = value.AsArray();
      if (arr.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out->push_back(',');
        if (pretty) {
          out->push_back('\n');
          out->append(child_pad);
        }
        WriteValue(arr[i], pretty, indent + 1, out);
      }
      if (pretty) {
        out->push_back('\n');
        out->append(pad);
      }
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& obj = value.AsObject();
      if (obj.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : obj) {
        if (!first) out->push_back(',');
        first = false;
        if (pretty) {
          out->push_back('\n');
          out->append(child_pad);
        }
        WriteEscaped(key, out);
        out->push_back(':');
        if (pretty) out->push_back(' ');
        WriteValue(member, pretty, indent + 1, out);
      }
      if (pretty) {
        out->push_back('\n');
        out->append(pad);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

Result<Value> Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

std::string Write(const Value& value, bool pretty) {
  std::string out;
  WriteValue(value, pretty, 0, &out);
  return out;
}

}  // namespace fixy::json
