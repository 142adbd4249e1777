// Model-level error reporting.
//
// The MANGO architecture has invariants that hold by construction in
// correctly programmed hardware (e.g. at most one flit of a VC in the
// shared media, no two connections sharing a VC buffer). The simulator
// checks them at run time; a violation means the *model user* mis-
// programmed the network, so it is reported as a recoverable exception
// rather than an abort. Tests rely on these throws for failure-injection.
#pragma once

#include <stdexcept>
#include <string>

namespace mango {

/// Raised when a structural/architectural invariant of the model is
/// violated (misprogrammed connection tables, buffer overruns, ...).
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void model_fail(const std::string& msg) { throw ModelError(msg); }

namespace detail {

/// Builds and throws the MANGO_ASSERT failure text.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] inline void invariant_fail(
    const std::string& msg, const char* cond, const char* file, int line) {
  std::string what("invariant violated: ");
  what.append(msg);
  what.append(" [").append(cond).append("] at ").append(file);
  what.append(":").append(std::to_string(line));
  model_fail(what);
}

/// The out-of-line failure path of one MANGO_ASSERT site. The message is
/// a lambda so its construction (string concatenation, to_string) is
/// compiled here, away from the checking function, and runs only when
/// the check fails.
template <typename Msg>
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void assert_fail(
    const Msg& msg, const char* cond, const char* file, int line) {
  invariant_fail(msg(), cond, file, line);
}

}  // namespace detail
}  // namespace mango

/// Checks an architectural invariant; throws mango::ModelError on failure
/// with the text "invariant violated: <msg> [<cond>] at <file>:<line>".
/// `msg` is evaluated only when `cond` is false.
#define MANGO_ASSERT(cond, msg)                                           \
  do {                                                                    \
    if (__builtin_expect(!(cond), 0)) {                                   \
      ::mango::detail::assert_fail([&] { return std::string(msg); },      \
                                   #cond, __FILE__, __LINE__);            \
    }                                                                     \
  } while (false)
