#ifndef CAD_COMMON_FLAGS_H_
#define CAD_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cad {

/// \brief Minimal command-line flag parser for the tools, benchmark and
/// example binaries.
///
/// Supports `--name=value` and `--name value` forms plus bare boolean
/// `--name`. Unknown flags are rejected so that typos in experiment scripts
/// fail loudly. Typed registrations bind straight into option structs:
///
/// \code
///   FlagParser flags;
///   int64_t trials = 10;
///   flags.AddInt64("trials", &trials, "number of repetitions");
///   flags.AddCount("k", &options.embedding_dim, "embedding dimension");
///   flags.AddChoice("engine", &options.engine,
///                   {{"exact", CommuteEngine::kExact},
///                    {"approx", CommuteEngine::kApprox}},
///                   "commute engine");
///   CAD_CHECK_OK(flags.Parse(argc, argv));
/// \endcode
class FlagParser {
 public:
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);

  /// A non-negative integer bound to a 64-bit unsigned field (a size, a
  /// count, a seed). Parse rejects a negative or non-integer value, or one
  /// below `min_value`, with a message naming the flag.
  template <typename T>
  void AddCount(const std::string& name, T* target, const std::string& help,
                uint64_t min_value = 0) {
    static_assert(std::is_unsigned_v<T> && sizeof(T) == sizeof(uint64_t),
                  "a count flag binds a 64-bit unsigned field");
    AddCount(name, *target, help, min_value,
             [target](uint64_t value) { *target = static_cast<T>(value); });
  }
  /// The same for a count that lands in more than one field: `store`
  /// receives the parsed value; Usage shows `default_value`.
  void AddCount(const std::string& name, uint64_t default_value,
                const std::string& help, uint64_t min_value,
                std::function<void(uint64_t)> store);

  /// A named choice bound to an enum field. Parse rejects any name not in
  /// `choices`, listing the allowed ones; Usage shows the name of the
  /// field's current value.
  template <typename E>
  void AddChoice(const std::string& name, E* target,
                 std::vector<std::pair<std::string, E>> choices,
                 const std::string& help) {
    std::vector<std::string> names;
    size_t current = 0;
    for (size_t i = 0; i < choices.size(); ++i) {
      names.push_back(choices[i].first);
      if (choices[i].second == *target) current = i;
    }
    AddChoiceByIndex(name, std::move(names), current, help,
                     [target, choices = std::move(choices)](size_t index) {
                       *target = choices[index].second;
                     });
  }

  /// Parses argv, writing values into the registered targets. Returns an
  /// error for unknown flags or malformed values. `--help` prints usage and
  /// sets help_requested().
  [[nodiscard]] Status Parse(int argc, char** argv);

  bool help_requested() const { return help_requested_; }

  /// Human-readable usage string listing all registered flags and their
  /// current (default) values.
  std::string Usage() const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    /// Booleans may appear bare; other flags consume a value.
    bool is_bool = false;
    /// Parses `value` and stores it in the flag's target.
    std::function<Status(const std::string& value)> set;
  };

  void AddChoiceByIndex(const std::string& name,
                        std::vector<std::string> names, size_t current,
                        const std::string& help,
                        std::function<void(size_t)> store);

  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

/// Parses argv into `flags` for a command-line tool. Returns the exit code
/// to stop with: 2 after printing the error and the usage to stderr, 0 when
/// --help printed the usage; nullopt when the tool should run.
std::optional<int> ParseToolFlags(FlagParser* flags, int argc, char** argv);

}  // namespace cad

#endif  // CAD_COMMON_FLAGS_H_
