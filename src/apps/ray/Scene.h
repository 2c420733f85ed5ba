//===- apps/ray/Scene.h - Java Grande style ray tracer ----------*- C++ -*-===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A real ray tracer in the shape of the Java Grande Forum benchmark the
/// paper uses for its high-level evaluation: a grid of 64 reflective
/// spheres, one point light, Phong shading, shadow rays and recursive
/// reflections.  Rendering actually happens (pixels and checksums are
/// real); the simulator charges virtual CPU time proportional to the
/// counted floating-point operations so the farm experiments see a
/// realistic, per-line-varying load.
///
//===----------------------------------------------------------------------===//

#ifndef PARCS_APPS_RAY_SCENE_H
#define PARCS_APPS_RAY_SCENE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parcs::apps::ray {

struct Vec3 {
  double X = 0, Y = 0, Z = 0;

  friend Vec3 operator+(Vec3 A, Vec3 B) {
    return {A.X + B.X, A.Y + B.Y, A.Z + B.Z};
  }
  friend Vec3 operator-(Vec3 A, Vec3 B) {
    return {A.X - B.X, A.Y - B.Y, A.Z - B.Z};
  }
  friend Vec3 operator*(Vec3 A, double K) {
    return {A.X * K, A.Y * K, A.Z * K};
  }
  friend Vec3 operator*(Vec3 A, Vec3 B) {
    return {A.X * B.X, A.Y * B.Y, A.Z * B.Z};
  }
  double dot(Vec3 B) const { return X * B.X + Y * B.Y + Z * B.Z; }
  double lengthSquared() const { return dot(*this); }
  Vec3 normalised() const;
};

struct Sphere {
  Vec3 Center;
  double Radius = 1.0;
  Vec3 Color = {1, 1, 1};
  double Diffuse = 0.7;
  double Specular = 0.3;
  double Reflect = 0.4;
};

/// One rendered scan line: packed 8-bit RGB pixels plus the operation
/// count that drives the virtual-time cost model.
struct LineResult {
  std::vector<uint8_t> Rgb; ///< Width * 3 bytes.
  uint64_t Ops = 0;
};

/// Whole-frame summary.
struct RenderStats {
  uint64_t TotalOps = 0;
  uint64_t Checksum = 0;
};

/// An immutable scene description.
class Scene {
public:
  /// The benchmark scene: \p GridSide^3 spheres (default 4 -> 64, as in
  /// the Java Grande ray tracer) in a cube, viewed from +Z, one light.
  static Scene javaGrande(int GridSide = 4);

  /// Renders scan line \p Y of a Width x Height frame.  Deterministic;
  /// Ops counts intersection tests and shading operations.
  LineResult renderLine(int Y, int Width, int Height, int MaxDepth = 3) const;

  /// Renders the whole frame, its lines in parallel on
  /// HostPool::shared(), and sums ops + pixel checksums over the lines.
  RenderStats renderWhole(int Width, int Height, int MaxDepth = 3) const;

  /// FNV-1a over a pixel row.  A frame's checksum is the sum over its
  /// lines, so farms can add up partial checksums in any order.
  static uint64_t lineChecksum(const std::vector<uint8_t> &Rgb);

  size_t sphereCount() const { return Spheres.size(); }

private:
  struct Hit {
    double T = -1.0;
    const Sphere *Object = nullptr;
  };

  Hit closestHit(Vec3 Origin, Vec3 Dir, uint64_t &Ops) const;
  Vec3 shade(Vec3 Origin, Vec3 Dir, int Depth, uint64_t &Ops) const;

  std::vector<Sphere> Spheres;
  Vec3 LightPos;
  Vec3 LightColor;
  Vec3 Ambient;
  Vec3 CameraPos;
};

/// Calibrates the virtual cost of one ray-tracing operation such that the
/// whole frame costs \p TargetSeconds on the reference VM (the paper's
/// ~100 s sequential Java time for 500x500).  Renders the frame once.
double calibrateNsPerOp(const Scene &S, int Width, int Height,
                        double TargetSeconds);

} // namespace parcs::apps::ray

#endif // PARCS_APPS_RAY_SCENE_H
