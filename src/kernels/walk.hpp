// The address direction in which a sweep visits its rows. The exact row
// helpers (fb_detail.hpp) and the dispatched row kernels (dispatch.hpp)
// prefetch their col/val streams along it.
#pragma once

#include <type_traits>

namespace fbmpk {

/// Address direction in which a sweep visits its rows' triangle data.
/// kUp: rows top-down (forward L sweeps, the head's U·x0, the tail).
/// kDown: rows bottom-up (backward U sweeps).
enum class Walk : int { kUp = 1, kDown = -1 };

/// Tag that carries a Walk into row policies as a compile-time value.
template <Walk W>
using WalkTag = std::integral_constant<Walk, W>;
inline constexpr WalkTag<Walk::kUp> kWalkUp{};
inline constexpr WalkTag<Walk::kDown> kWalkDown{};

}  // namespace fbmpk
