#include "spans.hh"

#include <cstdio>
#include <fstream>

namespace tsmbench {

std::map<std::string, double>
Spans::selfSeconds(PassKind kind) const
{
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const Span &s : spans_)
        if (s.parent)
            child[s.parent] += s.end - s.start;
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        if (s.kind == kind)
            out[s.name] += s.end - s.start - child[s.id];
    return out;
}

std::map<std::string, double>
Spans::totalSeconds(PassKind kind) const
{
    std::map<std::string, double> out;
    for (const Span &s : spans_)
        if (s.kind == kind)
            out[s.name] += s.end - s.start;
    return out;
}

bool
Spans::write(const std::string &path) const
{
    std::ofstream os(path);
    for (const Span &s : spans_) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "{\"id\": %u, \"parent\": %u, \"name\": \"%s\", "
                      "\"pass\": \"%s\", \"index\": %u, "
                      "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                      s.id, s.parent, s.name,
                      s.kind == PassKind::Setup ? "setup" : "iteration",
                      s.pass, s.start, s.end);
        os << line;
    }
    return bool(os);
}

} // namespace tsmbench
