// The command-line flag tables of bwcopt and bwcd: one strict number
// reader, one parser and one help printer, shared by both tools.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bwc/support/error.h"

namespace bwc::cli {

/// A flag value that must be a number and nothing else: std::from_chars
/// rejects trailing characters ("64x"), a sign on an unsigned type ("-1"),
/// leading blanks and out-of-range values, which std::stoll/std::stoull
/// would truncate or wrap.
template <typename T>
T number(const std::string& v) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (ec != std::errc() || ptr != end) throw std::invalid_argument(v);
  return x;
}

/// One entry of a flag table: the flag, its value placeholder (empty for
/// boolean flags; starting with '[' for an optional inline value, e.g.
/// "--tune" or "--tune=genetic"), help text, and its effect. An apply
/// that throws rejects the value: a bwc::Error with its own message, any
/// other exception as a bad value.
template <typename Options>
struct Flag {
  const char* name;
  const char* value;  // e.g. "<int>"; "" for flags taking no value
  std::string help;
  void (*apply)(Options&, const std::string&);
};

/// A command line: a tool or one of its subcommands.
template <typename Options>
struct Command {
  const char* name;                      // e.g. "bwcopt bwcd-client"
  const char* usage;                     // arguments after the name
  const char* about;                     // the --help preamble
  std::span<const Flag<Options>> flags;  // every flag the command accepts
  int first;                             // index of the first flag in argv
};

template <typename Options>
void print_help(const Command<Options>& command) {
  std::cout << command.about << "\noptions:\n";
  for (const Flag<Options>& flag : command.flags) {
    std::string head = "  " + std::string(flag.name);
    if (flag.value[0] == '[')
      head += std::string(flag.value);  // optional inline value
    else if (flag.value[0] != '\0')
      head += " " + std::string(flag.value);
    std::cout << head << "\n";
    // Wrap the help text at 70 columns under an 8-column indent.
    std::istringstream words(flag.help);
    std::string word;
    std::string line;
    while (words >> word) {
      if (!line.empty() && line.size() + 1 + word.size() > 70) {
        std::cout << "        " << line << "\n";
        line.clear();
      }
      if (!line.empty()) line += " ";
      line += word;
    }
    if (!line.empty()) std::cout << "        " << line << "\n";
  }
  std::cout << "  --help\n        print this help and exit\n";
}

template <typename Options>
[[noreturn]] void usage_error(const Command<Options>& command,
                              const std::string& why) {
  std::cerr << command.name << ": " << why << "\n"
            << "usage: " << command.name << " " << command.usage << "; run "
            << command.name << " --help for the flag list\n";
  std::exit(2);
}

/// Parse argv against the command's flag table; both "--flag value" and
/// "--flag=value" are accepted. Exits 0 after --help, 2 on bad usage.
template <typename Options>
Options parse(const Command<Options>& command, int argc, char** argv) {
  Options o;
  for (int i = command.first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(command);
      std::exit(0);
    }
    std::string inline_value;
    bool has_inline = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    const Flag<Options>* found = nullptr;
    for (const Flag<Options>& flag : command.flags) {
      if (arg == flag.name) {
        found = &flag;
        break;
      }
    }
    if (found == nullptr) usage_error(command, "unknown flag: " + arg);
    const bool optional_value = found->value[0] == '[';
    const bool takes_value = !optional_value && found->value[0] != '\0';
    std::string value;
    if (optional_value) {
      // "--tune" and "--tune=genetic" are both valid; a following
      // argument is never consumed.
      if (has_inline) value = inline_value;
    } else if (takes_value) {
      if (has_inline) {
        value = inline_value;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        usage_error(command,
                    "flag " + arg + " requires a value " + found->value);
      }
    } else if (has_inline) {
      usage_error(command, "flag " + arg + " takes no value");
    }
    try {
      found->apply(o, value);
    } catch (const Error& e) {
      usage_error(command, e.what());
    } catch (const std::exception&) {
      usage_error(command, "bad value \"" + value + "\" for flag " + arg);
    }
  }
  return o;
}

}  // namespace bwc::cli
