// Tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/vector_ops.hpp"

namespace qaoaml::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

/// A^T A + eps*I is symmetric positive definite.
Matrix random_spd(std::size_t n, Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.5;
  return spd;
}

TEST(Matrix, ConstructsWithFill) {
  const Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
}

TEST(Matrix, IdentityHasUnitDiagonal) {
  const Matrix eye = Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(eye(r, c), r == c ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(Matrix, TransposeRoundTrips) {
  Rng rng(5);
  const Matrix m = random_matrix(3, 5, rng);
  const Matrix tt = m.transposed().transposed();
  EXPECT_NEAR((m - tt).max_abs(), 0.0, 0.0);
}

TEST(Matrix, MultiplicationMatchesManual) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVecMatchesManual) {
  const Matrix a = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  const std::vector<double> v{1.0, 0.0, -1.0};
  const std::vector<double> out = a * v;
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, MultiplyRejectsShapeMismatch) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, InvalidArgument);
}

TEST(Matrix, AdditionAndScaling) {
  Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{4, 3}, {2, 1}});
  a += b;
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 10.0);
}

TEST(Matrix, SymmetryCheck) {
  Matrix s = Matrix::from_rows({{2, 1}, {1, 2}});
  EXPECT_TRUE(s.is_symmetric());
  s(0, 1) = 1.1;
  EXPECT_FALSE(s.is_symmetric());
  EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(Matrix, RowColAccessors) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.row(1), (std::vector<double>{4, 5, 6}));
  EXPECT_EQ(m.col(2), (std::vector<double>{3, 6}));
  EXPECT_THROW(m.row(2), InvalidArgument);
}

TEST(Matrix, OuterProduct) {
  const Matrix o = outer({1.0, 2.0}, {3.0, 4.0, 5.0});
  EXPECT_EQ(o.rows(), 2u);
  EXPECT_EQ(o.cols(), 3u);
  EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

TEST(VectorOps, DotNormAxpy) {
  const std::vector<double> a{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  EXPECT_DOUBLE_EQ(norm_inf({-5.0, 2.0}), 5.0);
  std::vector<double> y{1.0, 1.0, 1.0};
  axpy(2.0, a, y);
  EXPECT_EQ(y, (std::vector<double>{3.0, 5.0, 5.0}));
}

TEST(VectorOps, AddSubScale) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{3.0, 5.0};
  EXPECT_EQ(add(a, b), (std::vector<double>{4.0, 7.0}));
  EXPECT_EQ(sub(b, a), (std::vector<double>{2.0, 3.0}));
  EXPECT_EQ(scaled(2.0, a), (std::vector<double>{2.0, 4.0}));
}

TEST(VectorOps, ClampRespectsBounds) {
  const std::vector<double> lo{0.0, 0.0};
  const std::vector<double> hi{1.0, 1.0};
  EXPECT_EQ(clamped({-1.0, 0.5}, lo, hi), (std::vector<double>{0.0, 0.5}));
  EXPECT_THROW(clamped({1.0}, lo, hi), InvalidArgument);
}

TEST(Cholesky, ReconstructsMatrix) {
  Rng rng(11);
  const Matrix a = random_spd(6, rng);
  const Cholesky chol(a);
  const Matrix l = chol.lower();
  const Matrix rebuilt = l * l.transposed();
  EXPECT_LT((a - rebuilt).max_abs(), 1e-10);
}

TEST(Cholesky, SolvesLinearSystem) {
  Rng rng(13);
  const Matrix a = random_spd(8, rng);
  std::vector<double> x_true(8);
  for (auto& v : x_true) v = rng.normal();
  const std::vector<double> b = a * x_true;
  const std::vector<double> x = Cholesky(a).solve(b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, LogDeterminantMatchesLU) {
  Rng rng(17);
  const Matrix a = random_spd(5, rng);
  const double logdet = Cholesky(a).log_determinant();
  EXPECT_NEAR(std::exp(logdet), LU(a).determinant(), 1e-6 * std::abs(LU(a).determinant()) + 1e-9);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  const Matrix bad = Matrix::from_rows({{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(Cholesky{bad}, NumericalError);
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  // Rank-1 matrix: positive semidefinite, fails without jitter.
  const Matrix semi = outer({1.0, 1.0}, {1.0, 1.0});
  EXPECT_THROW(Cholesky{semi}, NumericalError);
  EXPECT_NO_THROW(cholesky_with_jitter(semi));
}

TEST(QR, SolvesSquareSystem) {
  Rng rng(19);
  const Matrix a = random_matrix(6, 6, rng);
  std::vector<double> x_true(6);
  for (auto& v : x_true) v = rng.normal();
  const std::vector<double> b = a * x_true;
  const std::vector<double> x = QR(a).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(QR, LeastSquaresMatchesNormalEquations) {
  Rng rng(23);
  const Matrix a = random_matrix(20, 4, rng);
  std::vector<double> b(20);
  for (auto& v : b) v = rng.normal();
  const std::vector<double> x = least_squares(a, b);
  // Normal equations: A^T A x = A^T b.
  const Matrix ata = a.transposed() * a;
  const std::vector<double> atb = left_multiply(b, a);
  const std::vector<double> x_ne = LU(ata).solve(atb);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], x_ne[i], 1e-8);
}

TEST(QR, ResidualIsOrthogonalToColumnSpace) {
  Rng rng(29);
  const Matrix a = random_matrix(15, 3, rng);
  std::vector<double> b(15);
  for (auto& v : b) v = rng.normal();
  const std::vector<double> x = least_squares(a, b);
  const std::vector<double> residual = sub(b, a * x);
  const std::vector<double> proj = left_multiply(residual, a);
  EXPECT_LT(norm_inf(proj), 1e-9);
}

TEST(QR, RejectsWideMatrices) {
  EXPECT_THROW(QR(Matrix(2, 3)), InvalidArgument);
}

TEST(QR, DetectsRankDeficiency) {
  // Two identical columns.
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = static_cast<double>(r + 1);
  }
  const QR qr(a);
  EXPECT_LT(qr.diagonal_condition(), 1e-12);
  EXPECT_THROW(qr.solve({1.0, 2.0, 3.0, 4.0}), NumericalError);
}

TEST(LU, SolveAndDeterminant) {
  const Matrix a = Matrix::from_rows({{2, 1}, {1, 3}});
  const std::vector<double> x = LU(a).solve({3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
  EXPECT_NEAR(LU(a).determinant(), 5.0, 1e-12);
}

TEST(LU, ThrowsOnSingular) {
  const Matrix a = Matrix::from_rows({{1, 2}, {2, 4}});
  EXPECT_THROW(LU{a}, NumericalError);
}

TEST(LU, PivotingHandlesZeroDiagonal) {
  const Matrix a = Matrix::from_rows({{0, 1}, {1, 0}});
  const std::vector<double> x = solve(a, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

}  // namespace
}  // namespace qaoaml::linalg
