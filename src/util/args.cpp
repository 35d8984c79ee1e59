#include "util/args.hpp"

#include <sstream>
#include <stdexcept>

namespace tsched {

namespace {

// std::stoll/std::stod stop at the first character they cannot use; a token
// with anything left over ("7abc", "1.5x") is rejected, not truncated.
std::int64_t parse_int(const std::string& key, const std::string& text) {
    std::size_t used = 0;
    try {
        const std::int64_t value = std::stoll(text, &used);
        if (used == text.size()) return value;
    } catch (const std::exception&) {
    }
    throw std::invalid_argument("--" + key + " expects an integer, got '" + text + "'");
}

double parse_double(const std::string& key, const std::string& text) {
    std::size_t used = 0;
    try {
        const double value = std::stod(text, &used);
        if (used == text.size()) return value;
    } catch (const std::exception&) {
    }
    throw std::invalid_argument("--" + key + " expects a number, got '" + text + "'");
}

std::vector<std::string> split_commas(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
    if (argc > 0) program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            positional_.push_back(std::move(tok));
            continue;
        }
        tok.erase(0, 2);
        const auto eq = tok.find('=');
        if (eq != std::string::npos) {
            kv_[tok.substr(0, eq)] = tok.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            kv_[tok] = argv[++i];
        } else {
            kv_[tok] = "true";  // bare flag
        }
    }
}

std::optional<std::string> Args::find(const std::string& key) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
}

bool Args::has(const std::string& key) const { return kv_.count(key) > 0; }

void Args::check_known(std::span<const std::string_view> known) const {
    for (const auto& [key, value] : kv_) {
        bool ok = false;
        for (const std::string_view k : known) {
            if (key == k) {
                ok = true;
                break;
            }
        }
        if (!ok) throw std::invalid_argument("unknown flag '--" + key + "'");
    }
}

void Args::check_known(std::initializer_list<std::string_view> known) const {
    check_known(std::span<const std::string_view>(known.begin(), known.size()));
}

std::string Args::get_string(const std::string& key, std::string def) const {
    const auto v = find(key);
    return v ? *v : std::move(def);
}

std::int64_t Args::get_int(const std::string& key, std::int64_t def) const {
    const auto v = find(key);
    return v ? parse_int(key, *v) : def;
}

std::size_t Args::get_size(const std::string& key, std::size_t def) const {
    const auto v = find(key);
    if (!v) return def;
    const std::int64_t value = parse_int(key, *v);
    if (value < 0)
        throw std::invalid_argument("--" + key + " expects a non-negative integer, got '" + *v +
                                    "'");
    return static_cast<std::size_t>(value);
}

double Args::get_double(const std::string& key, double def) const {
    const auto v = find(key);
    return v ? parse_double(key, *v) : def;
}

bool Args::get_bool(const std::string& key, bool def) const {
    const auto v = find(key);
    if (!v) return def;
    if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
    if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
    throw std::invalid_argument("--" + key + " expects a boolean, got '" + *v + "'");
}

std::vector<std::int64_t> Args::get_int_list(const std::string& key,
                                             std::vector<std::int64_t> def) const {
    const auto v = find(key);
    if (!v) return def;
    std::vector<std::int64_t> out;
    for (const auto& item : split_commas(*v)) out.push_back(parse_int(key, item));
    return out;
}

std::vector<double> Args::get_double_list(const std::string& key, std::vector<double> def) const {
    const auto v = find(key);
    if (!v) return def;
    std::vector<double> out;
    for (const auto& item : split_commas(*v)) out.push_back(parse_double(key, item));
    return out;
}

std::vector<std::string> Args::get_string_list(const std::string& key,
                                               std::vector<std::string> def) const {
    const auto v = find(key);
    if (!v) return def;
    return split_commas(*v);
}

}  // namespace tsched
