#include "record.h"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

void AppendString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (unsigned char c : text) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(static_cast<char>(c));
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(static_cast<char>(c));
    }
  }
  out->push_back('"');
}

void AppendNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out->append(buf);
}

// Appends `"key": <value>` members of one map, comma-separated.
template <typename Map, typename AppendValue>
void AppendMembers(const Map& map, AppendValue append_value, bool* first,
                   std::string* out) {
  for (const auto& [key, value] : map) {
    if (!*first) out->append(",\n");
    *first = false;
    AppendString(key, out);
    out->append(": ");
    append_value(value, out);
  }
}

template <typename T, typename AppendItem>
void AppendArray(const std::vector<T>& items, AppendItem append_item,
                 std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out->push_back(',');
    append_item(items[i], out);
  }
  out->push_back(']');
}

}  // namespace

std::string Record::ToJson() const {
  std::string out = "{\n";
  bool first = true;
  AppendMembers(values_, AppendNumber, &first, &out);
  AppendMembers(strings_, AppendString, &first, &out);
  AppendMembers(
      samples_,
      [](const std::vector<double>& v, std::string* o) {
        AppendArray(v, AppendNumber, o);
      },
      &first, &out);
  AppendMembers(
      lists_,
      [](const std::vector<std::string>& v, std::string* o) {
        AppendArray(v, AppendString, o);
      },
      &first, &out);
  out.append("\n}\n");
  return out;
}

}  // namespace perfbench
