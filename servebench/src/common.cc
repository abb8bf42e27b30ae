#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "bench.h"

namespace servebench {

double
nowUs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
MetricSet::set(const std::string &name, const std::string &unit,
               double value)
{
    for (Metric &m : items_)
        if (m.name == name) {
            m.unit = unit;
            m.value = value;
            return;
        }
    items_.push_back({name, unit, value});
}

double
MetricSet::get(const std::string &name) const
{
    for (const Metric &m : items_)
        if (m.name == name)
            return m.value;
    std::fprintf(stderr, "servebench: metric %s was never set\n",
                 name.c_str());
    std::exit(3);
}

// ---- spans -------------------------------------------------------------

int64_t
SpanRecorder::reserve()
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
}

int64_t
SpanRecorder::add(const std::string &name, const std::string &cat,
                  double start_us, double end_us, int64_t parent,
                  std::map<std::string, std::string> args, int64_t id,
                  int tid)
{
    if (!enabled_)
        return 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0)
        id = next_id_++;
    spans_.push_back({id, parent, tid, name, cat, start_us, end_us,
                      std::move(args)});
    return id;
}

std::map<int64_t, double>
SpanRecorder::selfTimesUs() const
{
    std::map<int64_t, std::vector<std::pair<double, double>>> children;
    for (const Span &s : spans_)
        if (s.parent != 0)
            children[s.parent].push_back({s.start_us, s.end_us});
    std::map<int64_t, double> self;
    for (const Span &s : spans_) {
        double covered = 0.0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            double lo = iv.front().first, hi = iv.front().second;
            for (const auto &[a, b] : iv) {
                if (a > hi) {
                    covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            covered += hi - lo;
        }
        self[s.id] = std::max(0.0, (s.end_us - s.start_us) - covered);
    }
    return self;
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

std::string
SpanRecorder::chromeJson() const
{
    const std::map<int64_t, double> self = selfTimesUs();
    std::ostringstream os;
    os.precision(3);
    os << std::fixed << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const Span &s : spans_) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"name\":" << jsonString(s.name)
           << ",\"cat\":" << jsonString(s.cat)
           << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << s.start_us
           << ",\"dur\":" << (s.end_us - s.start_us)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"self_us\":" << self.at(s.id);
        for (const auto &[k, v] : s.args)
            os << "," << jsonString(k) << ":" << jsonString(v);
        os << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

ScopedSpan::ScopedSpan(SpanRecorder &rec, std::string name, std::string cat,
                       int64_t parent,
                       std::map<std::string, std::string> args)
    : rec_(rec), name_(std::move(name)), cat_(std::move(cat)),
      parent_(parent), args_(std::move(args)), id_(rec.reserve()),
      start_us_(nowUs())
{
}

ScopedSpan::~ScopedSpan()
{
    rec_.add(name_, cat_, start_us_, nowUs(), parent_, std::move(args_),
             id_);
}

} // namespace servebench
