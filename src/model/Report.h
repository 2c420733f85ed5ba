//===- model/Report.h - Fitted model sets, reports, model JSON --*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ModelSet is every metric of a sweep fitted against one parameter --
/// what `parcs-model fit` produces and what the regression gate consumes.
/// It round-trips through a small JSON form, and renders as a byte-stable
/// text report: fixed column layout, %.6g numbers, metrics in sorted
/// order, so repeated fits of the same sweep diff empty.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_MODEL_REPORT_H
#define PARCS_MODEL_REPORT_H

#include "model/Pmnf.h"

#include <map>

namespace parcs::model {

/// Every fittable metric of one sweep, modeled against one parameter.
struct ModelSet {
  std::string Param;
  std::map<std::string, FittedModel, std::less<>> Models;
};

/// Fits every metric of \p Data against \p Param.  Metrics whose series
/// cannot be fitted (too few samples / distinct xs) are skipped; an error
/// is returned only when nothing at all could be fitted.  When \p Param
/// is empty it is inferred: the single varying parameter of the sweep
/// (ambiguous or absent -> error).
ErrorOr<ModelSet> fitAll(const DataSet &Data, std::string_view Param);

/// Aligned, byte-stable text report of the fitted functions and their
/// cross-validation quality.
std::string textReport(const ModelSet &Set);

/// The model JSON form: {"parcs_model": 1, "param": ..., "models":
/// {metric: {function, c0, c1, exp, log, points, cv_rmse, max_rel_err,
/// r2}, ...}}.  Byte-stable.
std::string modelJson(const ModelSet &Set);

/// Parses modelJson output.  Also accepts any JSON object with a "model"
/// member of that shape (so `parcs-model check` can read a fitted
/// envelope embedded in a larger bench report).
ErrorOr<ModelSet> parseModelJson(std::string_view Json);

/// Reads \p Path and calls parseModelJson; falls back to fitting the file
/// as a sweep when it has no model section but is a loadable sweep.
ErrorOr<ModelSet> loadModelFile(const std::string &Path);

} // namespace parcs::model

#endif // PARCS_MODEL_REPORT_H
