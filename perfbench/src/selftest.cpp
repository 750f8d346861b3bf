// Self-tests of the benchmark's own machinery, run before every measured
// run, outside its timing.
#include <algorithm>
#include <numeric>
#include <thread>

#include "net/protocol.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

void percentile_rule(std::vector<std::string>& failures) {
  std::vector<double> samples(999);
  std::iota(samples.begin(), samples.end(), 1.0);
  try {
    percentile(samples, 0.99);
    failures.push_back("percentile: p99 of 999 samples was not refused");
  } catch (const RefusedPercentile&) {
  }
  samples.push_back(1000.0);
  if (percentile(samples, 0.99) != 990.0) {
    failures.push_back("percentile: p99 of 1..1000 is not 990");
  }
  if (percentile(samples, 0.5) != 500.0) {
    failures.push_back("percentile: p50 of 1..1000 is not 500");
  }
  const std::pair<std::size_t, double> ladder[] = {
      {9, 0.0}, {20, 50.0}, {100, 90.0}, {999, 90.0}, {1000, 99.0},
      {10000, 99.9}};
  for (const auto& [n, expected] : ladder) {
    if (highest_supported_percentile(n) != expected) {
      failures.push_back("percentile: highest supported for n=" +
                         std::to_string(n) + " is not " +
                         std::to_string(expected));
    }
  }
}

// A 5 ms stall in one send must show up in the latency of every request due
// while it lasts, although each of those is itself served instantly.
void due_time_accounting(std::vector<std::string>& failures) {
  constexpr std::uint64_t kStalled = 100;
  constexpr double kStall = 5e-3;
  std::uint64_t sent = 0;
  const auto samples = run_open_loop(
      2000.0, 0.2, 1, /*seed=*/7, [](std::size_t, std::uint64_t) {},
      [&](std::size_t) {
        if (sent++ == kStalled) {
          std::this_thread::sleep_for(std::chrono::duration<double>(kStall));
        }
      });
  const std::vector<OpenLoopSample>& s = samples[0];
  if (s.size() <= kStalled + 3) {
    failures.push_back("due-time: too few requests scheduled");
    return;
  }
  if (s[kStalled].latency < kStall) {
    failures.push_back("due-time: the stalled request beat its stall");
  }
  const double stall_end = s[kStalled].due + s[kStalled].latency;
  std::size_t carried = 0;
  for (std::size_t k = kStalled + 1; k < s.size() && s[k].due < stall_end;
       ++k) {
    ++carried;
    // Its own service (send to done) is instant; the wait must be carried.
    if (s[k].latency < stall_end - s[k].due - 2e-4) {
      failures.push_back("due-time: request " + std::to_string(k) +
                         " does not carry the stall");
    }
  }
  if (carried < 3) {
    failures.push_back("due-time: fewer than 3 requests behind the stall");
  }
}

void breakdown_check(std::vector<std::string>& failures) {
  if (!adds_up(10.0, {4.0, 3.0, 3.0}, 0.01)) {
    failures.push_back("breakdown: exact parts rejected");
  }
  if (!adds_up(10.0, {4.0, 3.0, 2.5}, 0.10)) {
    failures.push_back("breakdown: 5% remainder rejected at 10%");
  }
  if (adds_up(10.0, {4.0, 3.0}, 0.10)) {
    failures.push_back("breakdown: 30% remainder accepted at 10%");
  }
  if (adds_up(10.0, {11.0, -1.0}, 0.10)) {
    failures.push_back("breakdown: negative part accepted");
  }
}

bool same_bytes(const RequestStream& a, const RequestStream& b) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    if (net::encode_predict_request(i, a.request(i)) !=
        net::encode_predict_request(i, b.request(i))) {
      return false;
    }
  }
  return true;
}

void seeded_inputs(const Rig& rig, std::vector<std::string>& failures) {
  const std::uint64_t seed = rig.seed;
  for (Traffic traffic : {Traffic::Mixed, Traffic::Unique}) {
    const RequestStream a(rig.corpus, traffic, seed, kLightStream);
    const RequestStream again(rig.corpus, traffic, seed, kLightStream);
    const RequestStream other(rig.corpus, traffic, seed + 1, kLightStream);
    if (!same_bytes(a, again)) {
      failures.push_back("streams: one seed gave two request streams");
    }
    if (same_bytes(a, other)) {
      failures.push_back("streams: two seeds gave one request stream");
    }
  }
  const sim::GpuModel gpu = sim::GpuModel::GTX680;
  core::DatasetOptions options;
  options.seed = seed;
  const std::uint64_t again = corpus_digest(core::build_dataset(gpu, options));
  options.seed = seed + 1;
  const std::uint64_t other = corpus_digest(core::build_dataset(gpu, options));
  const std::uint64_t setup = corpus_digest(rig.models->data[board_slot(gpu)]);
  if (again != setup) failures.push_back("corpus: one seed gave two corpora");
  if (other == setup) failures.push_back("corpus: two seeds gave one corpus");
}

// The answer check must pass the server's own answers and count as wrong
// an answer that belongs to another request (what a fingerprint collision
// or a wrong cache entry gives) or that differs in one bit.
void wrong_answers_counted(const Rig& rig,
                           std::vector<std::string>& failures) {
  const RequestStream requests = rig.stream(kSelftestStream);
  PhaseLog log;
  log.stream = kSelftestStream;
  log.records.resize(1);
  std::vector<std::size_t> checked;  // positions of Predict and Optimize
  for (std::uint64_t i = 0; i < 64; ++i) {
    const serve::Request request = requests.request(i);
    if (request.kind != serve::RequestKind::Govern) checked.push_back(i);
    log.records[0].push_back(
        answer_record(rig.backend->submit(request).get()));
  }
  std::vector<std::uint64_t>& records = log.records[0];
  const std::size_t first = checked.front();
  const auto other = std::find_if(checked.begin(), checked.end(),
                                  [&](std::size_t p) {
                                    return records[p] != records[first];
                                  });
  if (other == checked.end()) {
    failures.push_back("answer check: no two distinct answers to swap");
    return;
  }
  if (verify_phase(rig, log) != 0) {
    failures.push_back("answer check: the server's answers were counted wrong");
  }
  std::swap(records[first], records[*other]);
  if (verify_phase(rig, log) != 2) {
    failures.push_back("answer check: two swapped answers were not counted");
  }
  std::swap(records[first], records[*other]);
  records[first] ^= 0x100;  // one digest bit, outside the pair byte
  if (verify_phase(rig, log) != 1) {
    failures.push_back("answer check: a one-bit error was not counted");
  }
}

}  // namespace

bool run_selftests(const Rig& rig, std::vector<std::string>& failures) {
  const std::size_t before = failures.size();
  percentile_rule(failures);
  due_time_accounting(failures);
  breakdown_check(failures);
  seeded_inputs(rig, failures);
  wrong_answers_counted(rig, failures);
  return failures.size() == before;
}

}  // namespace perfbench
