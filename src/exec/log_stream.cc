#include "exec/log_stream.h"

#include <cstdio>

#include "common/strings.h"

namespace flor {
namespace exec {

namespace {

/// Bytes Escape would emit for `s`: each of \t \n \\ grows to two bytes.
size_t EscapedSize(const std::string& s) {
  size_t n = s.size();
  for (char c : s)
    if (c == '\t' || c == '\n' || c == '\\') ++n;
  return n;
}

/// Escapes `s` directly into `out` (no temporary string).
void EscapeTo(const std::string& s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '\t':
        *out += "\\t";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\\':
        *out += "\\\\";
        break;
      default:
        *out += c;
    }
  }
}

/// Decimal length of `v` including a leading '-' (matches StrCat/printf).
size_t DecimalLen(int32_t v) {
  size_t n = v < 0 ? 1 : 0;
  uint32_t u = v < 0 ? 0u - static_cast<uint32_t>(v)
                     : static_cast<uint32_t>(v);
  do {
    ++n;
    u /= 10;
  } while (u != 0);
  return n;
}

void DecimalTo(int32_t v, std::string* out) {
  char buf[16];
  const int len = std::snprintf(buf, sizeof(buf), "%d", v);
  out->append(buf, static_cast<size_t>(len));
}

Result<std::string> Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size())
      return Status::Corruption("dangling escape in log entry");
    switch (s[++i]) {
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case '\\':
        out += '\\';
        break;
      default:
        return Status::Corruption("unknown escape in log entry");
    }
  }
  return out;
}

}  // namespace

std::vector<LogEntry> LogStream::WorkEntries() const {
  std::vector<LogEntry> out;
  for (const auto& e : entries_)
    if (!e.init_mode) out.push_back(e);
  return out;
}

std::string LogStream::Serialize() const {
  // Exact-size first pass, then escape in place: one allocation for the
  // whole stream instead of a temporary line (plus its escape temporaries)
  // per entry.
  size_t total = 0;
  for (const auto& e : entries_) {
    total += DecimalLen(e.stmt_uid) + EscapedSize(e.context) +
             EscapedSize(e.label) + EscapedSize(e.text) +
             6;  // 4 tabs + the init digit + newline
  }
  std::string out;
  out.reserve(total);
  for (const auto& e : entries_) {
    DecimalTo(e.stmt_uid, &out);
    out += '\t';
    EscapeTo(e.context, &out);
    out += '\t';
    out += e.init_mode ? '1' : '0';
    out += '\t';
    EscapeTo(e.label, &out);
    out += '\t';
    EscapeTo(e.text, &out);
    out += '\n';
  }
  return out;
}

Result<LogStream> LogStream::Deserialize(const std::string& data) {
  // Strict inverse of Serialize: accepted bytes re-serialize exactly, so
  // a torn or mutated stream never passes as a shorter or defaulted one.
  if (!data.empty() && data.back() != '\n')
    return Status::Corruption("log stream does not end with a newline");
  std::vector<std::string> lines = StrSplit(data, '\n');
  lines.pop_back();  // the empty piece after the final newline
  LogStream out;
  for (const auto& line : lines) {
    auto fields = StrSplit(line, '\t');
    if (fields.size() != 5)
      return Status::Corruption("malformed log line: " + line);
    LogEntry e;
    e.stmt_uid = static_cast<int32_t>(std::strtol(fields[0].c_str(),
                                                  nullptr, 10));
    std::string canonical_uid;
    DecimalTo(e.stmt_uid, &canonical_uid);
    if (canonical_uid != fields[0] || (fields[2] != "0" && fields[2] != "1"))
      return Status::Corruption("malformed log line: " + line);
    FLOR_ASSIGN_OR_RETURN(e.context, Unescape(fields[1]));
    e.init_mode = fields[2] == "1";
    FLOR_ASSIGN_OR_RETURN(e.label, Unescape(fields[3]));
    FLOR_ASSIGN_OR_RETURN(e.text, Unescape(fields[4]));
    out.Append(std::move(e));
  }
  return out;
}

void LogStream::Extend(const LogStream& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

void LogStream::ExtendWork(const LogStream& other) {
  entries_.reserve(entries_.size() + other.entries_.size());
  for (const auto& e : other.entries_)
    if (!e.init_mode) entries_.push_back(e);
}

}  // namespace exec
}  // namespace flor
