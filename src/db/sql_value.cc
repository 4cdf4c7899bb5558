#include "src/db/sql_value.h"

#include "src/base/strings.h"

namespace asbestos {

int64_t SqlValue::AsInt() const {
  if (const auto* i = std::get_if<int64_t>(&v_)) {
    return *i;
  }
  return 0;
}

std::string SqlValue::AsText() const {
  if (const auto* s = std::get_if<std::string>(&v_)) {
    return *s;
  }
  if (const auto* i = std::get_if<int64_t>(&v_)) {
    return StrFormat("%lld", static_cast<long long>(*i));
  }
  return "";
}

int SqlValue::Compare(const SqlValue& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) {
      return 0;
    }
    return is_null() ? -1 : 1;
  }
  if (is_int() && other.is_int()) {
    const int64_t a = AsInt();
    const int64_t b = other.AsInt();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_text() && other.is_text()) {
    // The hot case (idd's user scan): compare the held strings in place.
    const int c = std::get<std::string>(v_).compare(std::get<std::string>(other.v_));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  const std::string a = AsText();
  const std::string b = other.AsText();
  return a < b ? -1 : (a > b ? 1 : 0);
}

std::string SqlValue::ToLiteral() const {
  if (is_null()) {
    return "NULL";
  }
  if (is_int()) {
    return AsText();
  }
  std::string out = "'";
  for (char c : AsText()) {
    if (c == '\'') {
      out += "''";
    } else {
      out.push_back(c);
    }
  }
  out += "'";
  return out;
}

}  // namespace asbestos
