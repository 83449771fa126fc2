#include "core/assembler.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "net/packet.h"
#include "sim/environment.h"
#include "tuplespace/value.h"

namespace agilla::core {
namespace {

/// Combined include + macro expansion depth bound: deep enough for any
/// real program, small enough to stop runaway recursive macros.
constexpr int kMaxExpandDepth = 64;

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

/// One optional leading '-', then decimal digits or 0x + hex digits.
std::optional<long> parse_int(std::string_view token) {
  const bool negative = token.starts_with('-');
  if (negative) {
    token.remove_prefix(1);
  }
  int base = 10;
  if (token.starts_with("0x") || token.starts_with("0X")) {
    base = 16;
    token.remove_prefix(2);
  }
  // from_chars would take a second sign itself.
  if (token.empty() || token.front() == '-') {
    return std::nullopt;
  }
  long value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, base);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return negative ? -value : value;
}

std::optional<double> parse_double(const std::string& token) {
  if (token.empty()) {
    return std::nullopt;
  }
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

// Operand names, each table read in both directions: every spelling
// parses (case-insensitively), and a value prints as its first spelling.
constexpr std::pair<const char*, sim::SensorType> kSensorNames[] = {
    {"TEMPERATURE", sim::SensorType::kTemperature},
    {"TEMP", sim::SensorType::kTemperature},
    {"PHOTO", sim::SensorType::kPhoto},
    {"LIGHT", sim::SensorType::kPhoto},
    {"MIC", sim::SensorType::kMicrophone},
    {"MICROPHONE", sim::SensorType::kMicrophone},
    {"SOUND", sim::SensorType::kMicrophone},
    {"MAGNETOMETER", sim::SensorType::kMagnetometer},
    {"MAG", sim::SensorType::kMagnetometer},
    {"ACCEL", sim::SensorType::kAccelerometer},
    {"ACCELEROMETER", sim::SensorType::kAccelerometer},
};

/// Field types a pusht wildcard can name (kInvalid and kTypeWildcard have
/// no spelling).
constexpr std::pair<const char*, ts::ValueType> kFieldTypeNames[] = {
    {"NUMBER", ts::ValueType::kNumber},
    {"VALUE", ts::ValueType::kNumber},
    {"INT", ts::ValueType::kNumber},
    {"STRING", ts::ValueType::kString},
    {"LOCATION", ts::ValueType::kLocation},
    {"READING", ts::ValueType::kReading},
    {"AGENTID", ts::ValueType::kAgentId},
    {"READINGTYPE", ts::ValueType::kReadingType},
};

template <typename Names>
std::optional<std::uint8_t> named_value(const Names& names,
                                        std::string_view token) {
  const std::string upper = to_upper(token);
  for (const auto& [name, value] : names) {
    if (upper == name) {
      return static_cast<std::uint8_t>(value);
    }
  }
  return std::nullopt;
}

/// The first spelling of `value`; nullptr when it has none.
template <typename Names>
const char* value_name(const Names& names, std::uint8_t value) {
  for (const auto& [name, v] : names) {
    if (static_cast<std::uint8_t>(v) == value) {
      return name;
    }
  }
  return nullptr;
}

void strip_comment(std::string& line) {
  for (const std::string_view marker : {"//", "#", ";"}) {
    const auto pos = line.find(marker);
    if (pos != std::string::npos) {
      line.resize(pos);
    }
  }
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

bool is_mnemonic(const std::string& token) {
  return opcode_by_mnemonic(token).has_value();
}

std::string unquote(const std::string& token, bool* was_quoted = nullptr) {
  if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
    if (was_quoted != nullptr) {
      *was_quoted = true;
    }
    return token.substr(1, token.size() - 2);
  }
  if (was_quoted != nullptr) {
    *was_quoted = false;
  }
  return token;
}

/// One logical source line after include/macro/.tuple expansion, carrying
/// its provenance so every later error still points at real source.
struct SourceLine {
  std::string file;
  std::size_t line = 0;
  std::string context;  ///< appended to error messages (macro expansions)
  std::optional<std::string> label;
  std::vector<std::string> tokens;  ///< mnemonic (or ".byte") + operands
};

struct ParsedLine {
  std::string file;
  std::size_t source_line = 0;
  std::string context;
  std::optional<std::string> label;
  std::string mnemonic;  // lowercase; ".byte" emits raw bytes
  std::vector<std::string> operands;
  std::uint16_t address = 0;  // filled in pass 1
  std::size_t size = 0;
};

// --------------------------------------------------------------------------
// Expansion stage: comments, labels, .include / .macro / .const / .tuple
// --------------------------------------------------------------------------

class Expander {
 public:
  explicit Expander(std::vector<AssemblyError>& errors) : errors_(errors) {}

  std::vector<SourceLine> lines;
  std::unordered_map<std::string, long> consts;

  void expand_source(std::string_view source, const std::string& file,
                     int depth) {
    std::istringstream stream{std::string(source)};
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(stream, raw)) {
      ++line_no;
      strip_comment(raw);
      auto tokens = tokenize(raw);
      // The paper prefixes some lines with a numeric listing index ("7:
      // FIRE pop"); tolerate and drop it.
      if (!tokens.empty() && tokens[0].size() >= 2 &&
          tokens[0].back() == ':' &&
          parse_int(tokens[0].substr(0, tokens[0].size() - 1)).has_value()) {
        tokens.erase(tokens.begin());
      }
      if (tokens.empty()) {
        continue;
      }
      process_tokens(std::move(tokens), file, line_no, depth, "");
    }
  }

  /// End-of-input checks (unterminated .macro).
  void finish() {
    if (recording_.has_value()) {
      fail(recording_->def_file, recording_->def_line,
           "missing .endm for macro '" + recording_->name + "'", "");
      recording_.reset();
    }
  }

 private:
  struct Macro {
    std::string name;
    std::vector<std::string> params;
    struct BodyLine {
      std::string file;
      std::size_t line = 0;
      std::vector<std::string> tokens;
    };
    std::vector<BodyLine> body;
    std::string def_file;
    std::size_t def_line = 0;
  };

  void fail(const std::string& file, std::size_t line, std::string message,
            const std::string& context) {
    errors_.push_back({line, std::move(message) + context, file});
  }

  /// Words that may follow a bare-word label (the paper's label style).
  bool starts_statement(const std::string& token) const {
    return is_mnemonic(token) || macros_.contains(token) ||
           token == ".tuple" || token == ".byte";
  }

  void process_tokens(std::vector<std::string> tokens,
                      const std::string& file, std::size_t line, int depth,
                      const std::string& context) {
    if (depth > kMaxExpandDepth) {
      fail(file, line, "macro/include expansion too deep (recursive macro?)",
           context);
      return;
    }

    // Inside a .macro body: record verbatim until .endm.
    if (recording_.has_value()) {
      if (tokens[0] == ".endm") {
        macros_[recording_->name] = std::move(*recording_);
        recording_.reset();
      } else if (tokens[0] == ".macro") {
        fail(file, line, ".macro inside a macro body is not supported",
             context);
      } else {
        recording_->body.push_back({file, line, std::move(tokens)});
      }
      return;
    }

    // --- label-less directives --------------------------------------------
    if (tokens[0] == ".endm") {
      fail(file, line, ".endm without a matching .macro", context);
      return;
    }
    if (tokens[0] == ".macro") {
      if (tokens.size() < 2) {
        fail(file, line, ".macro needs a name", context);
        return;
      }
      const std::string& name = tokens[1];
      if (is_mnemonic(name) || name.front() == '.') {
        fail(file, line, "macro name '" + name + "' shadows an instruction",
             context);
        return;
      }
      if (macros_.contains(name)) {
        fail(file, line, "macro '" + name + "' redefined", context);
        return;
      }
      recording_.emplace();
      recording_->name = name;
      recording_->params.assign(tokens.begin() + 2, tokens.end());
      recording_->def_file = file;
      recording_->def_line = line;
      return;
    }
    if (tokens[0] == ".const" || tokens[0] == ".equ") {
      if (tokens.size() != 3) {
        fail(file, line, tokens[0] + " needs a name and a value", context);
        return;
      }
      const std::string& name = tokens[1];
      if (is_mnemonic(name) || parse_int(name).has_value()) {
        fail(file, line, "constant name '" + name + "' is not usable",
             context);
        return;
      }
      if (consts.contains(name)) {
        fail(file, line, "constant '" + name + "' redefined", context);
        return;
      }
      const auto value = int_or_const(tokens[2]);
      if (!value.has_value()) {
        fail(file, line,
             tokens[0] + " value '" + tokens[2] + "' is not a number",
             context);
        return;
      }
      consts[name] = *value;
      return;
    }
    if (tokens[0] == ".include") {
      if (tokens.size() != 2) {
        fail(file, line, ".include needs one file name", context);
        return;
      }
      if (file.empty()) {  // console text must not read host files
        fail(file, line, ".include is only allowed in file sources",
             context);
        return;
      }
      include_file(unquote(tokens[1]), file, line, depth, context);
      return;
    }

    // --- optional label: "NAME:" or a bare non-mnemonic word followed by
    // something executable (the paper's style) -----------------------------
    std::optional<std::string> label;
    if (tokens[0].back() == ':') {
      label = tokens[0].substr(0, tokens[0].size() - 1);
      tokens.erase(tokens.begin());
    } else if (!starts_statement(tokens[0]) && tokens.size() >= 2 &&
               starts_statement(tokens[1])) {
      label = tokens[0];
      tokens.erase(tokens.begin());
    }
    if (tokens.empty()) {
      lines.push_back({file, line, context, std::move(label), {}});
      return;
    }

    if (tokens[0] == ".tuple") {
      expand_tuple(tokens, file, line, std::move(label), context);
      return;
    }

    if (const auto it = macros_.find(tokens[0]); it != macros_.end()) {
      if (label.has_value()) {
        // The label lands on the first expanded instruction.
        lines.push_back({file, line, context, std::move(label), {}});
      }
      invoke_macro(it->second, tokens, file, line, depth, context);
      return;
    }

    lines.push_back({file, line, context, std::move(label),
                     std::move(tokens)});
  }

  void include_file(const std::string& name, const std::string& from_file,
                    std::size_t line, int depth, const std::string& context) {
    namespace fs = std::filesystem;
    fs::path path(name);
    if (path.is_relative() && !from_file.empty()) {
      path = fs::path(from_file).parent_path() / path;
    }
    std::error_code ec;
    fs::path canonical = fs::weakly_canonical(path, ec);
    const std::string key = ec ? path.string() : canonical.string();
    if (std::find(include_stack_.begin(), include_stack_.end(), key) !=
        include_stack_.end()) {
      fail(from_file, line, "include cycle through '" + path.string() + "'",
           context);
      return;
    }
    std::ifstream in(path);
    if (!in) {
      fail(from_file, line, "cannot open include file '" + path.string() +
                                "'",
           context);
      return;
    }
    std::ostringstream content;
    content << in.rdbuf();
    include_stack_.push_back(key);
    expand_source(content.str(), path.string(), depth + 1);
    include_stack_.pop_back();
  }

  void invoke_macro(const Macro& macro,
                    const std::vector<std::string>& tokens,
                    const std::string& file, std::size_t line, int depth,
                    const std::string& context) {
    if (tokens.size() - 1 != macro.params.size()) {
      fail(file, line,
           "macro '" + macro.name + "' expects " +
               std::to_string(macro.params.size()) + " argument(s), got " +
               std::to_string(tokens.size() - 1),
           context);
      return;
    }
    std::unordered_map<std::string, std::string> args;
    for (std::size_t i = 0; i < macro.params.size(); ++i) {
      args[macro.params[i]] = tokens[i + 1];
    }
    const std::string body_context =
        " (in macro '" + macro.name + "' invoked from " +
        (file.empty() ? "<source>" : file) + ":" + std::to_string(line) +
        ")";
    for (const Macro::BodyLine& body : macro.body) {
      std::vector<std::string> expanded = body.tokens;
      for (std::string& token : expanded) {
        if (const auto it = args.find(token); it != args.end()) {
          token = it->second;
        }
      }
      process_tokens(std::move(expanded), body.file, body.line, depth + 1,
                     body_context);
    }
  }

  /// `.tuple f1, f2, ...` expands to the push sequence for a tuple literal
  /// plus the trailing field count the tuple-space opcodes pop first.
  void expand_tuple(const std::vector<std::string>& tokens,
                    const std::string& file, std::size_t line,
                    std::optional<std::string> label,
                    const std::string& context) {
    std::vector<std::vector<std::string>> pushes;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      bool quoted = false;
      const std::string text = unquote(tokens[i], &quoted);
      if (quoted) {
        if (text.empty() || text.size() > 3) {
          fail(file, line,
               ".tuple string field '" + text + "' must be 1..3 characters",
               context);
          return;
        }
        pushes.push_back({"pushn", text});
        continue;
      }
      if (const auto n = int_or_const(text); n.has_value()) {
        if (*n >= 0 && *n <= 255) {
          pushes.push_back({"pushc", std::to_string(*n)});
        } else if (*n >= -32768 && *n <= 32767) {
          pushes.push_back({"pushcl", std::to_string(*n)});
        } else {
          fail(file, line,
               ".tuple numeric field " + std::to_string(*n) +
                   " does not fit 16 bits",
               context);
          return;
        }
        continue;
      }
      if (to_lower(text) == "loc") {
        pushes.push_back({"loc"});
        continue;
      }
      if (named_value(kFieldTypeNames, text).has_value()) {
        pushes.push_back({"pusht", text});
        continue;
      }
      if (named_value(kSensorNames, text).has_value()) {
        pushes.push_back({"pushrt", text});
        continue;
      }
      if (!text.empty() && text.size() <= 3) {
        pushes.push_back({"pushn", text});
        continue;
      }
      fail(file, line,
           ".tuple field '" + tokens[i] +
               "' is not a string, number, type, sensor, or loc",
           context);
      return;
    }
    for (auto& push : pushes) {
      lines.push_back({file, line, context, std::move(label),
                       std::move(push)});
      label.reset();
    }
    lines.push_back({file, line, context, std::move(label),
                     {"pushc", std::to_string(pushes.size())}});
  }

  std::optional<long> int_or_const(const std::string& token) const {
    if (const auto n = parse_int(token); n.has_value()) {
      return n;
    }
    if (const auto it = consts.find(token); it != consts.end()) {
      return it->second;
    }
    return std::nullopt;
  }

  std::vector<AssemblyError>& errors_;
  std::unordered_map<std::string, Macro> macros_;
  std::vector<std::string> include_stack_;  ///< canonical active includes
  std::optional<Macro> recording_;
};

// --------------------------------------------------------------------------
// Pass 1 sizing / pass 2 emission
// --------------------------------------------------------------------------

/// .byte is one byte per operand; an instruction takes instruction_length()
/// of its (base) opcode.
std::optional<std::size_t> line_size(const ParsedLine& line,
                                     std::string* error) {
  if (line.mnemonic == ".byte") {
    if (line.operands.empty()) {
      *error = ".byte needs at least one value";
      return std::nullopt;
    }
    return line.operands.size();
  }
  const auto op = opcode_by_mnemonic(line.mnemonic);
  if (!op.has_value()) {
    *error = "unknown instruction '" + line.mnemonic + "'";
    return std::nullopt;
  }
  return instruction_length(static_cast<std::uint8_t>(*op));
}

class Emitter {
 public:
  Emitter(const std::unordered_map<std::string, std::uint16_t>& labels,
          const std::unordered_map<std::string, long>& consts,
          std::vector<std::uint8_t>& code)
      : labels_(labels), consts_(consts), code_(code) {}

  /// Resolves `token` as number first, then named constant, then label.
  std::optional<long> value_or_label(const std::string& token) const {
    if (const auto n = int_or_const(token); n.has_value()) {
      return n;
    }
    const auto it = labels_.find(token);
    if (it != labels_.end()) {
      return static_cast<long>(it->second);
    }
    return std::nullopt;
  }

  std::optional<long> int_or_const(const std::string& token) const {
    if (const auto n = parse_int(token); n.has_value()) {
      return n;
    }
    if (const auto it = consts_.find(token); it != consts_.end()) {
      return it->second;
    }
    return std::nullopt;
  }

  [[nodiscard]] bool is_label(const std::string& token) const {
    return !parse_int(token).has_value() && !consts_.contains(token) &&
           labels_.contains(token);
  }

  void byte(std::uint8_t b) { code_.push_back(b); }
  void word(std::uint16_t w) {
    code_.push_back(static_cast<std::uint8_t>(w & 0xFF));
    code_.push_back(static_cast<std::uint8_t>(w >> 8));
  }

 private:
  const std::unordered_map<std::string, std::uint16_t>& labels_;
  const std::unordered_map<std::string, long>& consts_;
  std::vector<std::uint8_t>& code_;
};

}  // namespace

AssemblyResult assemble(std::string_view source,
                        std::string_view file_name) {
  AssemblyResult result;
  Expander expander(result.errors);
  expander.expand_source(source, std::string(file_name), 0);
  expander.finish();

  // --- pass 1: size and collect labels -------------------------------------
  std::vector<ParsedLine> lines;
  std::unordered_map<std::string, std::uint16_t> labels;
  std::size_t address = 0;
  std::optional<std::string> pending_label;
  const SourceLine* last = nullptr;
  for (SourceLine& src : expander.lines) {
    last = &src;
    if (src.tokens.empty()) {
      // Label-only line: attach to the next instruction.
      if (src.label.has_value()) {
        pending_label = src.label;
      }
      continue;
    }
    ParsedLine line;
    line.file = src.file;
    line.source_line = src.line;
    line.context = src.context;
    line.label = std::move(src.label);
    if (pending_label.has_value()) {
      if (line.label.has_value()) {
        result.errors.push_back({src.line,
                                 "instruction has two labels ('" +
                                     *pending_label + "' and '" +
                                     *line.label + "')" + src.context,
                                 src.file});
      } else {
        line.label = pending_label;
      }
      pending_label.reset();
    }
    line.mnemonic = to_lower(src.tokens[0]);
    line.operands.assign(src.tokens.begin() + 1, src.tokens.end());

    std::string error;
    const auto size = line_size(line, &error);
    if (!size.has_value()) {
      result.errors.push_back({src.line, error + src.context, src.file});
      continue;
    }
    line.address = static_cast<std::uint16_t>(address);
    line.size = *size;
    address += *size;
    if (address > 0xFFFF) {
      result.errors.push_back(
          {src.line, "program exceeds the 64 KiB address space" + src.context,
           src.file});
      return result;
    }

    if (line.label.has_value()) {
      if (labels.contains(*line.label)) {
        result.errors.push_back({src.line,
                                 "duplicate label '" + *line.label + "'" +
                                     src.context,
                                 src.file});
      } else {
        labels[*line.label] = line.address;
      }
    }
    lines.push_back(std::move(line));
  }
  if (pending_label.has_value()) {
    result.errors.push_back({last != nullptr ? last->line : 0,
                             "label '" + *pending_label +
                                 "' has no instruction",
                             last != nullptr ? last->file
                                             : std::string(file_name)});
  }
  if (!result.ok()) {
    return result;
  }

  // --- pass 2: emit ---------------------------------------------------------
  Emitter emit(labels, expander.consts, result.code);
  for (const ParsedLine& line : lines) {
    auto fail = [&](const std::string& message) {
      result.errors.push_back(
          {line.source_line, message + line.context, line.file});
    };
    auto want_operands = [&](std::size_t n) {
      if (line.operands.size() != n) {
        fail(line.mnemonic + " expects " + std::to_string(n) +
             " operand(s), got " + std::to_string(line.operands.size()));
        return false;
      }
      return true;
    };

    if (line.mnemonic == ".byte") {
      for (const std::string& operand : line.operands) {
        const auto v = emit.int_or_const(operand);
        if (!v.has_value() || *v < 0 || *v > 255) {
          fail(".byte value '" + operand + "' must be 0..255");
          break;
        }
        emit.byte(static_cast<std::uint8_t>(*v));
      }
      continue;
    }

    const OpcodeInfo& info = *opcode_info(
        static_cast<std::uint8_t>(*opcode_by_mnemonic(line.mnemonic)));
    const auto opcode = static_cast<std::uint8_t>(info.opcode);
    if (!want_operands(info.operand == OperandKind::kNone       ? 0
                       : info.operand == OperandKind::kLocation ? 2
                                                                : 1)) {
      continue;
    }
    const std::string text =
        line.operands.empty() ? std::string() : line.operands[0];
    if (info.operand != OperandKind::kHeapSlot) {
      emit.byte(opcode);  // any error discards the whole image
    }
    switch (info.operand) {
      case OperandKind::kNone:
        break;
      case OperandKind::kHeapSlot: {
        const auto slot = emit.int_or_const(text);
        if (!slot.has_value() || *slot < 0 ||
            *slot >= static_cast<long>(kHeapSlots)) {
          fail("heap slot must be 0.." + std::to_string(kHeapSlots - 1));
          break;
        }
        emit.byte(static_cast<std::uint8_t>(opcode + *slot));
        break;
      }
      case OperandKind::kU8: {
        std::optional<long> v = emit.value_or_label(text);
        if (!v.has_value()) {
          v = named_value(kSensorNames, text);
        }
        if (!v.has_value() || *v < 0 || *v > 255) {
          fail(line.mnemonic +
               " operand must be 0..255, a sensor name, or a label");
          break;
        }
        emit.byte(static_cast<std::uint8_t>(*v));
        break;
      }
      case OperandKind::kS16: {
        const auto v = emit.value_or_label(text);
        if (!v.has_value() || *v < -32768 || *v > 65535) {
          fail(line.mnemonic + " operand must be a 16-bit value or label");
          break;
        }
        emit.word(static_cast<std::uint16_t>(*v));
        break;
      }
      case OperandKind::kPackedString: {
        const std::string chars = unquote(text);
        if (chars.empty() || chars.size() > 3) {
          fail(line.mnemonic + " takes a 1..3 character string");
          break;
        }
        emit.word(ts::pack_string(chars));
        break;
      }
      case OperandKind::kFieldType: {
        const auto t = named_value(kFieldTypeNames, text);
        if (!t.has_value()) {
          std::string names;
          for (const auto& [name, value] : kFieldTypeNames) {
            if (value_name(kFieldTypeNames,
                           static_cast<std::uint8_t>(value)) == name) {
              names += (names.empty() ? "" : "/") + std::string(name);
            }
          }
          fail(line.mnemonic + " operand must be a field type (" + names +
               ")");
          break;
        }
        emit.byte(*t);
        break;
      }
      case OperandKind::kSensor: {
        auto sensor = named_value(kSensorNames, text);
        if (!sensor.has_value()) {
          if (const auto n = emit.int_or_const(text);
              n.has_value() && *n >= 0 &&
              *n < static_cast<long>(sim::kNumSensorTypes)) {
            sensor = static_cast<std::uint8_t>(*n);
          }
        }
        if (!sensor.has_value()) {
          fail(line.mnemonic + " operand must be a sensor name or index");
          break;
        }
        emit.byte(*sensor);
        break;
      }
      case OperandKind::kLocation: {
        const auto x = parse_double(line.operands[0]);
        const auto y = parse_double(line.operands[1]);
        if (!x.has_value() || !y.has_value()) {
          fail(line.mnemonic + " takes two finite numeric coordinates");
          break;
        }
        emit.word(static_cast<std::uint16_t>(net::encode_coordinate(*x)));
        emit.word(static_cast<std::uint16_t>(net::encode_coordinate(*y)));
        break;
      }
      case OperandKind::kRel8: {
        const auto target = emit.value_or_label(text);
        if (!target.has_value()) {
          fail("unknown jump target '" + text + "'");
          break;
        }
        long offset = *target;
        if (emit.is_label(text)) {
          // Label targets are absolute; encode relative to the next
          // instruction.
          offset = *target - (static_cast<long>(line.address) + 2);
        }
        if (offset < -128 || offset > 127) {
          fail("relative jump target out of range (" +
               std::to_string(offset) + ")");
          break;
        }
        emit.byte(static_cast<std::uint8_t>(static_cast<std::int8_t>(offset)));
        break;
      }
      case OperandKind::kAbs8: {
        const auto target = emit.value_or_label(text);
        if (!target.has_value() || *target < 0 || *target > 255) {
          fail("jump target must be a label or address 0..255");
          break;
        }
        emit.byte(static_cast<std::uint8_t>(*target));
        break;
      }
    }
  }
  if (!result.ok()) {
    result.code.clear();
  }
  return result;
}

std::string AssemblyResult::error_text() const {
  std::ostringstream os;
  for (const auto& e : errors) {
    if (e.file.empty()) {
      os << "line " << e.line << ": " << e.message << "\n";
    } else {
      os << e.file << ":" << e.line << ": " << e.message << "\n";
    }
  }
  return os.str();
}

AssemblyResult assemble_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    AssemblyResult result;
    result.errors.push_back({0, "cannot open source file '" + path + "'",
                             path});
    return result;
  }
  std::ostringstream content;
  content << in.rdbuf();
  return assemble(content.str(), path);
}

std::vector<std::uint8_t> assemble_or_die(std::string_view source) {
  AssemblyResult result = assemble(source);
  if (!result.ok()) {
    std::fprintf(stderr, "assemble_or_die failed:\n%s\n",
                 result.error_text().c_str());
    std::abort();
  }
  return std::move(result.code);
}

// --------------------------------------------------------------------------
// Disassembly: re-assemblable text with synthetic labels
// --------------------------------------------------------------------------

namespace {

/// One decoded region: a canonical instruction, or a `.byte` run covering
/// exactly the same bytes (undefined opcode, truncated tail, or an operand
/// encoding the assembler cannot reproduce from a mnemonic).
struct DisRecord {
  std::size_t addr = 0;
  std::size_t length = 1;
  bool raw_bytes = false;  ///< emit as .byte
};

/// True when the assembler would regenerate exactly these operand bytes
/// from the instruction's textual spelling.
bool operands_canonical(OperandKind kind,
                        std::span<const std::uint8_t> operand) {
  switch (kind) {
    case OperandKind::kFieldType:
      return value_name(kFieldTypeNames, operand[0]) != nullptr;
    case OperandKind::kSensor:
      return value_name(kSensorNames, operand[0]) != nullptr;
    case OperandKind::kPackedString: {
      const std::uint16_t packed =
          static_cast<std::uint16_t>(operand[0] | (operand[1] << 8));
      const std::string text = ts::unpack_string(packed);
      return !text.empty() && ts::pack_string(text) == packed;
    }
    default:
      // Numbers, slots and jumps accept every byte value; coordinates are
      // exact in double (1/64 fixed point), so they re-encode exactly.
      return true;
  }
}

/// The code address the decoded instruction at `addr` jumps to; -1 when
/// it is no jump.
long jump_target(std::span<const std::uint8_t> code, std::size_t addr) {
  switch (opcode_info(code[addr])->operand) {
    case OperandKind::kRel8:
      return static_cast<long>(addr) + 2 +
             static_cast<std::int8_t>(code[addr + 1]);
    case OperandKind::kAbs8:
      return code[addr + 1];
    default:
      return -1;
  }
}

}  // namespace

std::string disassemble(std::span<const std::uint8_t> code) {
  // Decode once to fix instruction boundaries and .byte fallbacks.
  std::vector<DisRecord> records;
  std::size_t pc = 0;
  while (pc < code.size()) {
    const OpcodeInfo* info = opcode_info(code[pc]);
    const std::size_t length = instruction_length(code[pc]);
    if (info == nullptr || pc + length > code.size()) {
      records.push_back({pc, 1, true});
      ++pc;
      continue;
    }
    const bool canonical =
        operands_canonical(info->operand, code.subspan(pc + 1, length - 1));
    records.push_back({pc, length, !canonical});
    pc += length;
  }

  // Label every jump target that lands on a decoded boundary; everything
  // else is emitted as a numeric offset/address (still assemblable).
  std::set<std::size_t> boundaries;
  for (const DisRecord& rec : records) {
    boundaries.insert(rec.addr);
  }
  std::set<std::size_t> label_addrs;
  for (const DisRecord& rec : records) {
    if (rec.raw_bytes) {
      continue;
    }
    const long target = jump_target(code, rec.addr);
    if (target >= 0 && boundaries.contains(static_cast<std::size_t>(target))) {
      label_addrs.insert(static_cast<std::size_t>(target));
    }
  }
  const auto jump_operand = [&](long target, long fallback) {
    char buf[32];
    if (target >= 0 &&
        label_addrs.contains(static_cast<std::size_t>(target))) {
      std::snprintf(buf, sizeof(buf), "L_%ld", target);
    } else {
      std::snprintf(buf, sizeof(buf), "%ld", fallback);
    }
    return std::string(buf);
  };

  std::ostringstream os;
  for (const DisRecord& rec : records) {
    if (label_addrs.contains(rec.addr)) {
      os << "L_" << rec.addr << ":\n";
    }
    std::string text;
    const std::uint8_t raw = code[rec.addr];
    if (rec.raw_bytes) {
      text = ".byte";
      for (std::size_t i = 0; i < rec.length; ++i) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), " 0x%02x", code[rec.addr + i]);
        text += buf;
      }
    } else {
      const OpcodeInfo& info = *opcode_info(raw);
      const std::uint8_t* operand = code.data() + rec.addr + 1;
      const auto u16 = [&](std::size_t at) {
        return static_cast<std::uint16_t>(operand[at] |
                                          (operand[at + 1] << 8));
      };
      std::string arg;
      switch (info.operand) {
        case OperandKind::kNone:
          break;
        case OperandKind::kHeapSlot:
          arg = std::to_string(raw - static_cast<unsigned>(info.opcode));
          break;
        case OperandKind::kU8:
          arg = std::to_string(operand[0]);
          break;
        case OperandKind::kS16:
          arg = std::to_string(static_cast<std::int16_t>(u16(0)));
          break;
        case OperandKind::kPackedString:
          arg = ts::unpack_string(u16(0));
          break;
        case OperandKind::kFieldType:
          arg = value_name(kFieldTypeNames, operand[0]);
          break;
        case OperandKind::kSensor:
          arg = value_name(kSensorNames, operand[0]);
          break;
        case OperandKind::kLocation: {
          char buf[64];
          std::snprintf(
              buf, sizeof(buf), "%.10g %.10g",
              net::decode_coordinate(static_cast<std::int16_t>(u16(0))),
              net::decode_coordinate(static_cast<std::int16_t>(u16(2))));
          arg = buf;
          break;
        }
        case OperandKind::kRel8:
          arg = jump_operand(jump_target(code, rec.addr),
                             static_cast<std::int8_t>(operand[0]));
          break;
        case OperandKind::kAbs8:
          arg = jump_operand(operand[0], operand[0]);
          break;
      }
      text = info.mnemonic;
      if (!arg.empty()) {
        text += " " + arg;
      }
    }
    char addr_comment[32];
    std::snprintf(addr_comment, sizeof(addr_comment), "; 0x%02zx",
                  rec.addr);
    os << "  " << text;
    for (std::size_t pad = text.size(); pad < 24; ++pad) {
      os << ' ';
    }
    os << addr_comment << "\n";
  }
  return os.str();
}

}  // namespace agilla::core
