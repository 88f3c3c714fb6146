// Fixtures for api.test_only: a public header whose functions are called
// from the corpus's tests/ (tests/api_test.cpp), perfbench/
// (perfbench/api_bench.cpp), another src/ module
// (src/campaign/api_caller.cpp), or nowhere.
#pragma once

#include <cstdint>

namespace syndog::detect {

// Positive: a free function only a tests/ file calls.
[[nodiscard]] int corpus_test_only_free(int x);  // EXPECT(api.test_only)

// Negative: a function only perfbench/ calls is program surface.
[[nodiscard]] int corpus_perfbench_only(int x);

// Negative: another src/ module calls it.
[[nodiscard]] int corpus_program_call(int x);

// Negative: a fake that tests use to check other code, waived.
// syndog-lint: allow-next-line(api.test_only) -- corpus: a fake tests drive other code with
void corpus_waived_fake(int x);

// A waiver left behind after its function was deleted suppresses nothing.
// EXPECT-NL(waiver.unused)
// syndog-lint: allow-next-line(api.test_only) -- corpus: the function below this waiver is gone

class CorpusApi {
 public:
  // Positive: a non-const member only tests call.
  void bump(std::int64_t n);  // EXPECT(api.test_only)
  // Negative: an inline const accessor that a test reads.
  [[nodiscard]] std::int64_t level() const { return level_; }
  // Positive: an inline const accessor that nothing reads.
  [[nodiscard]] std::int64_t unread() const { return level_ * 2; }  // EXPECT(api.test_only)
  // Positive: an out-of-line const computation only tests call.
  [[nodiscard]] std::int64_t digest() const;  // EXPECT(api.test_only)
  // Negative: called by the program through `&CorpusApi::reset`.
  void reset();

 private:
  std::int64_t level_ = 0;
};

}  // namespace syndog::detect
