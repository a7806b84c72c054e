// Property tests of every accuracy model against the Eq. (5) conditions:
// P' >= 0 and P'' <= 0, plus derivative consistency by finite differences.
#include "game/accuracy_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

namespace tradefl::game {
namespace {

struct ModelCase {
  std::string name;
  AccuracyModelPtr model;
};

// Without this, gtest prints the case as its raw bytes, a heap address that
// differs from process to process, and that dump ends up in the ctest names.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class AccuracyModelProperties : public ::testing::TestWithParam<ModelCase> {};

TEST_P(AccuracyModelProperties, PerformanceZeroAtOrigin) {
  EXPECT_NEAR(GetParam().model->performance(0.0), 0.0, 1e-12);
}

TEST_P(AccuracyModelProperties, LossDecreasesWithData) {
  const AccuracyModel& model = *GetParam().model;
  double previous = model.loss(0.0);
  for (double omega = 1.0; omega <= 300.0; omega += 7.0) {
    const double current = model.loss(omega);
    EXPECT_LE(current, previous + 1e-12) << "at omega " << omega;
    previous = current;
  }
}

TEST_P(AccuracyModelProperties, Equation5FirstDerivative) {
  const AccuracyModel& model = *GetParam().model;
  for (double omega = 0.0; omega <= 300.0; omega += 5.0) {
    EXPECT_GE(model.performance_derivative(omega), 0.0) << "at omega " << omega;
  }
}

TEST_P(AccuracyModelProperties, Equation5SecondDerivative) {
  const AccuracyModel& model = *GetParam().model;
  for (double omega = 0.0; omega <= 300.0; omega += 5.0) {
    EXPECT_LE(model.performance_second_derivative(omega), 1e-15) << "at omega " << omega;
  }
}

TEST_P(AccuracyModelProperties, DerivativesMatchFiniteDifferences) {
  const AccuracyModel& model = *GetParam().model;
  const double h1 = 1e-5;
  // Second differences divide by h^2, so they need a larger step to stay
  // above double rounding noise (~eps/h^2).
  const double h2 = 1e-3;
  for (double omega : {1.0, 10.0, 50.0, 200.0}) {
    const double fd_first =
        (model.loss(omega + h1) - model.loss(omega - h1)) / (2.0 * h1);
    EXPECT_NEAR(model.loss_derivative(omega), fd_first,
                1e-5 * std::max(1.0, std::abs(fd_first)))
        << "at omega " << omega;
    const double fd_second = (model.loss(omega + h2) - 2.0 * model.loss(omega) +
                              model.loss(omega - h2)) /
                             (h2 * h2);
    EXPECT_NEAR(model.loss_second_derivative(omega), fd_second,
                0.05 * std::abs(fd_second) + 1e-7)
        << "at omega " << omega;
  }
}

TEST_P(AccuracyModelProperties, NegativeOmegaRejectedBySqrtFamily) {
  // Only the sqrt/empirical families validate the domain; others are total.
  const AccuracyModel& model = *GetParam().model;
  if (dynamic_cast<const SqrtAccuracyModel*>(&model) != nullptr ||
      dynamic_cast<const EmpiricalAccuracyModel*>(&model) != nullptr) {
    EXPECT_THROW(model.loss(-1.0), std::invalid_argument);
  }
}

SqrtSaturationFit sample_fit() {
  SqrtSaturationFit fit;
  fit.a = 0.8;
  fit.b = 1.5;
  fit.c = 5.0;
  return fit;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, AccuracyModelProperties,
    ::testing::Values(
        ModelCase{"sqrt", std::make_shared<const SqrtAccuracyModel>(10.0, 0.75)},
        ModelCase{"sqrt_tight", std::make_shared<const SqrtAccuracyModel>(50.0, 0.3)},
        ModelCase{"power", std::make_shared<const PowerLawAccuracyModel>(0.8, 20.0, 0.5)},
        ModelCase{"power_alpha1", std::make_shared<const PowerLawAccuracyModel>(0.6, 40.0, 1.0)},
        ModelCase{"exp", std::make_shared<const ExponentialAccuracyModel>(0.7, 60.0)},
        ModelCase{"empirical",
                  std::make_shared<const EmpiricalAccuracyModel>(sample_fit(), 0.9)}));

TEST(SqrtAccuracyModel, AnchorsLossAtA0) {
  const SqrtAccuracyModel model(10.0, 0.75);
  EXPECT_NEAR(model.loss(0.0), 0.75, 1e-12);
}

TEST(SqrtAccuracyModel, MatchesFootnote7AtLargeOmega) {
  // Far from the smoothing offset, A(omega) ~ 1/sqrt(omega G) + 1/G.
  const double g = 10.0;
  const SqrtAccuracyModel model(g, 0.75);
  const double omega = 500.0;
  const double footnote = 1.0 / std::sqrt(omega * g) + 1.0 / g;
  EXPECT_NEAR(model.loss(omega), footnote, 2e-5);
}

TEST(SqrtAccuracyModel, RejectsInconsistentParams) {
  EXPECT_THROW(SqrtAccuracyModel(0.5, 0.75), std::invalid_argument);   // G <= 1
  EXPECT_THROW(SqrtAccuracyModel(10.0, 0.05), std::invalid_argument);  // a0 <= 1/G
}

TEST(PowerLawAccuracyModel, RejectsBadAlpha) {
  EXPECT_THROW(PowerLawAccuracyModel(0.8, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(PowerLawAccuracyModel(0.8, 10.0, 1.5), std::invalid_argument);
}

TEST(EmpiricalAccuracyModel, GainMatchesFit) {
  const SqrtSaturationFit fit = sample_fit();
  const EmpiricalAccuracyModel model(fit, 0.9);
  // P(omega) = accuracy gain = b/sqrt(c) - b/sqrt(omega + c).
  const double omega = 30.0;
  const double expected = fit.b / std::sqrt(fit.c) - fit.b / std::sqrt(omega + fit.c);
  EXPECT_NEAR(model.performance(omega), expected, 1e-12);
}

TEST(EmpiricalAccuracyModel, RejectsNegativeSlope) {
  SqrtSaturationFit fit = sample_fit();
  fit.b = -1.0;
  EXPECT_THROW(EmpiricalAccuracyModel(fit, 0.9), std::invalid_argument);
}

}  // namespace
}  // namespace tradefl::game
