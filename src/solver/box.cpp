#include "solver/box.h"

#include <array>
#include <sstream>

#include "support/check.h"

namespace xcv::solver {

bool AnyEmpty(std::span<const Interval> dims) {
  for (const Interval& d : dims)
    if (d.IsEmpty()) return true;
  return false;
}

double MaxWidth(std::span<const Interval> dims) {
  double w = 0.0;
  for (const Interval& d : dims) w = std::fmax(w, d.Width());
  return w;
}

std::size_t WidestDim(std::span<const Interval> dims) {
  XCV_CHECK(!dims.empty());
  std::size_t best = 0;
  double w = -1.0;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (dims[i].Width() > w) {
      w = dims[i].Width();
      best = i;
    }
  }
  return best;
}

std::vector<double> Midpoint(std::span<const Interval> dims) {
  std::vector<double> p;
  p.reserve(dims.size());
  for (const Interval& d : dims) p.push_back(d.Midpoint());
  return p;
}

bool ContainsPoint(std::span<const Interval> dims,
                   std::span<const double> point) {
  if (point.size() != dims.size()) return false;
  for (std::size_t i = 0; i < dims.size(); ++i)
    if (!dims[i].Contains(point[i])) return false;
  return true;
}

std::string BoxToString(std::span<const Interval> dims) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) os << " x ";
    os << dims[i].ToString();
  }
  os << "}";
  return os.str();
}

std::pair<Box, Box> Box::Bisect(std::size_t dim) const {
  XCV_CHECK(dim < dims_.size());
  Interval left, right;
  dims_[dim].Bisect(&left, &right);
  Box a = *this, b = *this;
  a.dims_[dim] = left;
  b.dims_[dim] = right;
  return {std::move(a), std::move(b)};
}

void BoxStore::Reset(std::size_t dims) {
  dims_ = dims;
  slots_ = 0;
  arena_.clear();
  free_.clear();
}

BoxStore::Ref BoxStore::Allocate() {
  if (!free_.empty()) {
    const Ref ref = free_.back();
    free_.pop_back();
    return ref;
  }
  const auto ref = static_cast<Ref>(slots_);
  ++slots_;
  arena_.resize(slots_ * dims_);
  return ref;
}

BoxStore::Ref BoxStore::AllocateCopy(std::span<const Interval> src) {
  XCV_DCHECK(src.size() == dims_);
  // Stage first: Allocate may grow the arena and invalidate `src` when it
  // aliases one of our own slots (the bisect-into-children path).
  staging_.assign(src.begin(), src.end());
  const Ref ref = Allocate();
  std::copy(staging_.begin(), staging_.end(), View(ref).begin());
  return ref;
}

void BoxStore::Release(Ref ref) {
  XCV_DCHECK(ref >= 0 && static_cast<std::size_t>(ref) < slots_);
  free_.push_back(ref);
}

void AppendPointJson(std::string& out, std::span<const double> point) {
  out += '[';
  for (std::size_t i = 0; i < point.size(); ++i) {
    if (i) out += ',';
    json::AppendDouble(out, point[i]);
  }
  out += ']';
}

void AppendBoxJson(std::string& out, std::span<const Interval> dims) {
  out += '[';
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i) out += ',';
    AppendPointJson(out, std::array{dims[i].lo(), dims[i].hi()});
  }
  out += ']';
}

std::vector<double> PointFromJson(const json::JsonValue& v) {
  XCV_CHECK_MSG(v.kind == json::JsonValue::Kind::kArray,
                "a point needs [x, ...]");
  std::vector<double> point;
  point.reserve(v.array.size());
  for (const json::JsonValue& c : v.array) point.push_back(c.AsDouble());
  return point;
}

std::vector<Interval> BoxFromJson(const json::JsonValue& v) {
  XCV_CHECK_MSG(v.kind == json::JsonValue::Kind::kArray,
                "a box needs [[lo, hi], ...]");
  std::vector<Interval> dims;
  dims.reserve(v.array.size());
  for (const json::JsonValue& d : v.array) {
    XCV_CHECK_MSG(d.kind == json::JsonValue::Kind::kArray &&
                      d.array.size() == 2,
                  "box dimension needs [lo, hi]");
    dims.emplace_back(d.array[0].AsDouble(), d.array[1].AsDouble());
  }
  return dims;
}

std::vector<double> PointFromJson(json::Cursor& cursor) {
  std::vector<double> point;
  cursor.BeginArray();
  while (cursor.NextElement()) point.push_back(cursor.Number());
  return point;
}

std::vector<Interval> BoxFromJson(json::Cursor& cursor) {
  std::vector<Interval> dims;
  cursor.BeginArray();
  while (cursor.NextElement()) {
    double ends[2] = {};
    std::size_t n = 0;
    cursor.BeginArray();
    while (cursor.NextElement()) {
      XCV_CHECK_MSG(n < 2, "box dimension needs [lo, hi]");
      ends[n++] = cursor.Number();
    }
    XCV_CHECK_MSG(n == 2, "box dimension needs [lo, hi]");
    dims.emplace_back(ends[0], ends[1]);
  }
  return dims;
}

}  // namespace xcv::solver
