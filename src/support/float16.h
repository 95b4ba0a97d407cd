// IEEE 754 binary32 and binary16 rounding helpers.
//
// The value model of every tier is "every float value is an f32": each operation
// that produces a float (immediate, int->float promotion, float cast, + - * /, unary
// intrinsic, tensor-intrinsic MAC) rounds its result to f32. The interpreter and the
// bytecode VM keep double registers and round through RoundF32; because
// 53 >= 2*24 + 2, a double + - * / of two f32 operands rounded once to f32 gives the
// bits of the f32 operation itself, which is what the emitted C computes.
//
// The runtime stores float16 data widened to float32 (see src/interp). f16 arithmetic
// runs per operation in f32 and quantizes through the half-precision grid only at f16
// casts and stores. Every tier shares these helpers so results are bitwise identical.
#ifndef SRC_SUPPORT_FLOAT16_H_
#define SRC_SUPPORT_FLOAT16_H_

#include <cstdint>
#include <cstring>

namespace tvmcpp {

// Rounds a double to the nearest f32 (round-to-nearest-even), kept in a double.
inline double RoundF32(double value) {
  return static_cast<double>(static_cast<float>(value));
}

// float32 -> binary16 bit pattern, round-to-nearest-even. Overflow goes to infinity,
// subnormals are rounded into the half subnormal grid, NaN payload is truncated
// (quiet bit forced so the result stays a NaN).
inline uint16_t Float32ToHalfBits(float value) {
  uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  uint16_t sign = static_cast<uint16_t>((f >> 16) & 0x8000u);
  uint32_t exp = (f >> 23) & 0xffu;
  uint32_t mant = f & 0x7fffffu;
  if (exp == 0xffu) {  // inf / NaN
    if (mant == 0) {
      return static_cast<uint16_t>(sign | 0x7c00u);
    }
    return static_cast<uint16_t>(sign | 0x7c00u | 0x200u | (mant >> 13));
  }
  int e = static_cast<int>(exp) - 127 + 15;  // rebias
  if (e >= 0x1f) {  // overflow -> inf
    return static_cast<uint16_t>(sign | 0x7c00u);
  }
  if (e <= 0) {  // half subnormal (or underflow to zero)
    if (e < -10) {
      return sign;
    }
    mant |= 0x800000u;  // implicit leading 1
    uint32_t shift = static_cast<uint32_t>(14 - e);
    uint32_t half_mant = mant >> shift;
    uint32_t rem = mant & ((1u << shift) - 1u);
    uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) {
      ++half_mant;  // cannot overflow past 0x400: that would be the smallest normal
    }
    return static_cast<uint16_t>(sign | half_mant);
  }
  uint16_t bits =
      static_cast<uint16_t>(sign | (static_cast<uint32_t>(e) << 10) | (mant >> 13));
  uint32_t rem = mant & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (bits & 1u))) {
    ++bits;  // mantissa carry may ripple into the exponent; that is correct RNE
  }
  return bits;
}

// binary16 bit pattern -> float32 (exact).
inline float HalfBitsToFloat32(uint16_t h) {
  uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  uint32_t exp = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // +-0
    } else {
      int e = 0;  // normalize the subnormal
      uint32_t m = mant;
      while (!(m & 0x400u)) {
        m <<= 1;
        ++e;
      }
      f = sign | (static_cast<uint32_t>(127 - 15 + 1 - e) << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (exp == 0x1fu) {
    f = sign | 0x7f800000u | (mant << 13);
  } else {
    f = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &f, sizeof(out));
  return out;
}

// Rounds a float32 to the nearest representable float16 value (kept in float32 storage).
inline float QuantizeFloat16(float value) {
  return HalfBitsToFloat32(Float32ToHalfBits(value));
}

}  // namespace tvmcpp

#endif  // SRC_SUPPORT_FLOAT16_H_
