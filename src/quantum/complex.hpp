// The amplitude type of the statevector and its kernels.
#ifndef QAOAML_QUANTUM_COMPLEX_HPP
#define QAOAML_QUANTUM_COMPLEX_HPP

#include <complex>

namespace qaoaml::quantum {

using Complex = std::complex<double>;

}  // namespace qaoaml::quantum

#endif  // QAOAML_QUANTUM_COMPLEX_HPP
