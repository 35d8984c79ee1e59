// Minimal command-line argument parser for the bench/example executables.
//
// Accepted syntax:  --key=value  |  --key value  |  --flag
// A number must fill its whole token ("7abc" is an error, not 7), and every
// parse error throws std::invalid_argument naming the flag.  Unknown keys are
// rejected only when the caller asks (strict mode), so every
// bench binary can run with zero arguments under the repo-wide
// `for b in build/bench/*; do $b; done` driver.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tsched {

class Args {
public:
    Args(int argc, const char* const* argv);

    [[nodiscard]] bool has(const std::string& key) const;

    [[nodiscard]] std::string get_string(const std::string& key, std::string def) const;
    [[nodiscard]] std::int64_t get_int(const std::string& key, std::int64_t def) const;
    /// A size or count: like get_int, but a negative value throws
    /// std::invalid_argument naming the flag instead of wrapping around.
    [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t def) const;
    [[nodiscard]] double get_double(const std::string& key, double def) const;
    [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

    /// Comma-separated list of integers, e.g. --sizes=20,40,60.
    [[nodiscard]] std::vector<std::int64_t> get_int_list(const std::string& key,
                                                         std::vector<std::int64_t> def) const;
    /// Comma-separated list of doubles, e.g. --ccr=0.1,0.5,1,5.
    [[nodiscard]] std::vector<double> get_double_list(const std::string& key,
                                                      std::vector<double> def) const;
    /// Comma-separated list of strings, e.g. --algos=heft,ils.
    [[nodiscard]] std::vector<std::string> get_string_list(const std::string& key,
                                                           std::vector<std::string> def) const;

    /// Strict mode: throws std::invalid_argument naming the first flag that
    /// is not in `known` ("unknown flag '--foo'"), so a typo like
    /// --trails=50 fails loudly instead of silently running with defaults.
    void check_known(std::span<const std::string_view> known) const;
    void check_known(std::initializer_list<std::string_view> known) const;

    /// Positional (non --key) arguments, in order.
    [[nodiscard]] const std::vector<std::string>& positional() const noexcept { return positional_; }

    /// Program name (argv[0]).
    [[nodiscard]] const std::string& program() const noexcept { return program_; }

private:
    [[nodiscard]] std::optional<std::string> find(const std::string& key) const;

    std::string program_;
    std::map<std::string, std::string> kv_;
    std::vector<std::string> positional_;
};

}  // namespace tsched
