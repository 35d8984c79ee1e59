#include "trace/counters.hpp"

#include <cinttypes>
#include <cstdio>

namespace tsched::trace {

namespace {

void append_json_string(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
    LockGuard lock(mutex_);
    for (auto& [key, counter] : counters_) {
        if (key == name) return *counter;
    }
    counters_.emplace_back(std::string(name), std::make_unique<Counter>());
    return *counters_.back().second;
}

Snapshot Registry::snapshot() const {
    LockGuard lock(mutex_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_) {
        snap.counters.push_back({name, counter->value()});
    }
    return snap;
}

void Registry::reset() {
    LockGuard lock(mutex_);
    for (auto& [name, counter] : counters_) counter->reset();
}

Registry& registry() {
    static Registry instance;
    return instance;
}

Snapshot snapshot_delta(const Snapshot& before, const Snapshot& after) {
    Snapshot delta;
    for (const auto& sample : after.counters) {
        std::uint64_t base = 0;
        for (const auto& prior : before.counters) {
            if (prior.name == sample.name) {
                base = prior.value;
                break;
            }
        }
        if (sample.value > base) delta.counters.push_back({sample.name, sample.value - base});
    }
    return delta;
}

std::string to_json(const Snapshot& snapshot) {
    std::string out = "{\"counters\":{";
    for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
        if (i) out += ',';
        append_json_string(out, snapshot.counters[i].name);
        char buf[32];
        std::snprintf(buf, sizeof(buf), ":%" PRIu64,
                      static_cast<std::uint64_t>(snapshot.counters[i].value));
        out += buf;
    }
    out += "}}";
    return out;
}

}  // namespace tsched::trace
