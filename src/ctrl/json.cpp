#include "ctrl/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace flexric::ctrl {

const Json& Json::operator[](const std::string& key) const {
  static const Json null_json;
  if (!is_object()) return null_json;
  const auto& obj = std::get<JsonObject>(v_);
  auto it = obj.find(key);
  return it == obj.end() ? null_json : it->second;
}

namespace {

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
}

void dump_number(double d, std::string& out) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf,
                                   static_cast<long long>(d));
    out.append(buf, ptr);
  } else {
    char buf[32];
    int n = std::snprintf(buf, sizeof buf, "%.10g", d);
    out.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += v ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          dump_number(v, out);
        } else if constexpr (std::is_same_v<T, std::string>) {
          dump_string(v, out);
        } else if constexpr (std::is_same_v<T, JsonArray>) {
          out.push_back('[');
          bool first = true;
          for (const auto& e : v) {
            if (!first) out.push_back(',');
            first = false;
            out += e.dump();
          }
          out.push_back(']');
        } else if constexpr (std::is_same_v<T, JsonObject>) {
          out.push_back('{');
          bool first = true;
          for (const auto& [k, e] : v) {
            if (!first) out.push_back(',');
            first = false;
            dump_string(k, out);
            out.push_back(':');
            out += e.dump();
          }
          out.push_back('}');
        }
      },
      v_);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// @view_of(the JSON text passed to json_parse)
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<Json> parse() {
    auto v = value();
    if (!v) return v;
    skip_ws();
    if (pos_ != s_.size())
      return Error{Errc::malformed, "trailing characters after JSON value"};
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  [[nodiscard]] bool eof() const { return pos_ >= s_.size(); }
  char peek() { return s_[pos_]; }
  bool consume(char c) {
    if (eof() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool consume_word(std::string_view w) {
    if (s_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Result<Json> value() {
    skip_ws();
    if (eof()) return Error{Errc::truncated, "unexpected end of JSON"};
    char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s) return s.error();
      return Json(std::move(*s));
    }
    if (consume_word("true")) return Json(true);
    if (consume_word("false")) return Json(false);
    if (consume_word("null")) return Json(nullptr);
    return number();
  }

  Result<Json> object() {
    consume('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_ws();
      auto key = string();
      if (!key) return key.error();
      skip_ws();
      if (!consume(':')) return Error{Errc::malformed, "expected ':'"};
      auto v = value();
      if (!v) return v;
      obj[std::move(*key)] = std::move(*v);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return Result<Json>(std::in_place, std::move(obj));
      return Error{Errc::malformed, "expected ',' or '}'"};
    }
  }

  Result<Json> array() {
    consume('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      auto v = value();
      if (!v) return v;
      arr.push_back(std::move(*v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return Json(std::move(arr));
      return Error{Errc::malformed, "expected ',' or ']'"};
    }
  }

  Result<std::string> string() {
    if (!consume('"')) return Error{Errc::malformed, "expected string"};
    std::string out;
    while (!eof()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (eof()) break;
        char esc = s_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          default: return Error{Errc::unsupported, "unsupported escape"};
        }
      } else {
        out.push_back(c);
      }
    }
    return Error{Errc::truncated, "unterminated string"};
  }

  Result<Json> number() {
    std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '-' || peek() == '+'))
      ++pos_;
    if (pos_ == start) return Error{Errc::malformed, "invalid JSON token"};
    double d = 0.0;
    auto sub = s_.substr(start, pos_ - start);
    auto [ptr, ec] = std::from_chars(sub.data(), sub.data() + sub.size(), d);
    if (ec != std::errc() || ptr != sub.data() + sub.size())
      return Error{Errc::malformed, "invalid number"};
    return Json(d);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace flexric::ctrl
