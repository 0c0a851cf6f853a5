// Error handling primitives shared across the library.
//
// The library reports contract violations and runtime failures with
// exceptions (C++ Core Guidelines E.2).  `Error` is the common base so
// callers can catch everything from this library with one handler.
#ifndef QAOAML_COMMON_ERROR_HPP
#define QAOAML_COMMON_ERROR_HPP

#include <stdexcept>
#include <string>

namespace qaoaml {

/// Base class for all exceptions thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function argument violates its documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a numeric routine fails to make progress (e.g. a Cholesky
/// factorization of a non-positive-definite matrix).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Checks a precondition; throws InvalidArgument with `msg` on failure.
inline void require(bool condition, const std::string& msg) {
  if (!condition) throw InvalidArgument(msg);
}

/// The same for a literal message: the exception's string is built only
/// when the check fails, so a passing check on a hot path allocates
/// nothing (the std::string overload would build `msg` first).
inline void require(bool condition, const char* msg) {
  if (!condition) throw InvalidArgument(msg);
}

}  // namespace qaoaml

#endif  // QAOAML_COMMON_ERROR_HPP
