#include "common/flags.h"

#include <iostream>
#include <sstream>

#include "common/result.h"
#include "common/strings.h"

namespace cad {

void FlagParser::AddInt64(const std::string& name, int64_t* target,
                          const std::string& help) {
  flags_[name] = Flag{help, std::to_string(*target), false,
                      [target](const std::string& value) -> Status {
                        CAD_ASSIGN_OR_RETURN(*target, ParseInt64(value));
                        return Status::OK();
                      }};
}

void FlagParser::AddDouble(const std::string& name, double* target,
                           const std::string& help) {
  flags_[name] = Flag{help, FormatDouble(*target), false,
                      [target](const std::string& value) -> Status {
                        CAD_ASSIGN_OR_RETURN(*target, ParseDouble(value));
                        return Status::OK();
                      }};
}

void FlagParser::AddBool(const std::string& name, bool* target,
                         const std::string& help) {
  flags_[name] = Flag{
      help, *target ? "true" : "false", true,
      [name, target](const std::string& value) -> Status {
        if (value == "true" || value == "1" || value.empty()) {
          *target = true;
        } else if (value == "false" || value == "0") {
          *target = false;
        } else {
          return Status::InvalidArgument("bad boolean for --" + name + ": " +
                                         value);
        }
        return Status::OK();
      }};
}

void FlagParser::AddString(const std::string& name, std::string* target,
                           const std::string& help) {
  flags_[name] = Flag{help, *target, false,
                      [target](const std::string& value) -> Status {
                        *target = value;
                        return Status::OK();
                      }};
}

void FlagParser::AddCount(const std::string& name, uint64_t default_value,
                          const std::string& help, uint64_t min_value,
                          std::function<void(uint64_t)> store) {
  flags_[name] = Flag{
      help, std::to_string(default_value), false,
      [name, min_value, store = std::move(store)](
          const std::string& value) -> Status {
        const Result<int64_t> parsed = ParseInt64(value);
        if (!parsed.ok() || *parsed < 0 ||
            static_cast<uint64_t>(*parsed) < min_value) {
          return Status::InvalidArgument(
              "--" + name + " must be an integer >= " +
              std::to_string(min_value) + ", got '" + value + "'");
        }
        store(static_cast<uint64_t>(*parsed));
        return Status::OK();
      }};
}

void FlagParser::AddChoiceByIndex(const std::string& name,
                                  std::vector<std::string> names,
                                  size_t current, const std::string& help,
                                  std::function<void(size_t)> store) {
  const std::string shown_default = names[current];
  flags_[name] = Flag{
      help, shown_default, false,
      [name, names = std::move(names), store = std::move(store)](
          const std::string& value) -> Status {
        for (size_t i = 0; i < names.size(); ++i) {
          if (names[i] == value) {
            store(i);
            return Status::OK();
          }
        }
        return Status::InvalidArgument("unknown --" + name + " '" + value +
                                       "' (allowed: " + Join(names, ", ") +
                                       ")");
      }};
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      std::cout << Usage();
      continue;
    }
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::NotFound("unknown flag: --" + name);
    }
    if (eq == std::string::npos) {
      if (it->second.is_bool) {
        value = "true";
      } else {
        if (i + 1 >= argc) {
          return Status::InvalidArgument("flag --" + name + " needs a value");
        }
        value = argv[++i];
      }
    }
    CAD_RETURN_NOT_OK(it->second.set(value));
  }
  return Status::OK();
}

std::string FlagParser::Usage() const {
  std::ostringstream os;
  os << "Flags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " (default: " << flag.default_value << ")  "
       << flag.help << "\n";
  }
  return os.str();
}

std::optional<int> ParseToolFlags(FlagParser* flags, int argc, char** argv) {
  const Status parsed = flags->Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n" << flags->Usage();
    return 2;
  }
  if (flags->help_requested()) return 0;
  return std::nullopt;
}

}  // namespace cad
