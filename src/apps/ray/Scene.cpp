//===- apps/ray/Scene.cpp -------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "apps/ray/Scene.h"

#include "support/HostPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <future>

using namespace parcs::apps::ray;

Vec3 Vec3::normalised() const {
  double Len = std::sqrt(lengthSquared());
  if (Len <= 0.0)
    return {0, 0, 0};
  return {X / Len, Y / Len, Z / Len};
}

Scene Scene::javaGrande(int GridSide) {
  assert(GridSide > 0 && "need at least one sphere");
  Scene S;
  double Spacing = 2.2;
  double Offset = -Spacing * (GridSide - 1) / 2.0;
  int Index = 0;
  for (int X = 0; X < GridSide; ++X) {
    for (int Y = 0; Y < GridSide; ++Y) {
      for (int Z = 0; Z < GridSide; ++Z, ++Index) {
        Sphere Ball;
        Ball.Center = {Offset + X * Spacing, Offset + Y * Spacing,
                       Offset + Z * Spacing - 12.0};
        Ball.Radius = 0.9;
        // Deterministic palette varying over the grid.
        Ball.Color = {0.3 + 0.7 * (X % 3) / 2.0, 0.3 + 0.7 * (Y % 3) / 2.0,
                      0.3 + 0.7 * (Z % 3) / 2.0};
        Ball.Reflect = (Index % 2) ? 0.5 : 0.25;
        S.Spheres.push_back(Ball);
      }
    }
  }
  S.LightPos = {12.0, 14.0, 4.0};
  S.LightColor = {1.0, 1.0, 1.0};
  S.Ambient = {0.12, 0.12, 0.12};
  S.CameraPos = {0.0, 0.0, 6.0};
  return S;
}

Scene::Hit Scene::closestHit(Vec3 Origin, Vec3 Dir, uint64_t &Ops) const {
  Hit Best;
  for (const Sphere &Ball : Spheres) {
    ++Ops; // One intersection test.
    Vec3 Oc = Origin - Ball.Center;
    double B = Oc.dot(Dir);
    double C = Oc.lengthSquared() - Ball.Radius * Ball.Radius;
    double Disc = B * B - C;
    if (Disc < 0.0)
      continue;
    double Root = std::sqrt(Disc);
    double T = -B - Root;
    if (T < 1e-6)
      T = -B + Root;
    if (T < 1e-6)
      continue;
    if (!Best.Object || T < Best.T) {
      Best.T = T;
      Best.Object = &Ball;
    }
  }
  return Best;
}

Vec3 Scene::shade(Vec3 Origin, Vec3 Dir, int Depth, uint64_t &Ops) const {
  Hit H = closestHit(Origin, Dir, Ops);
  if (!H.Object) {
    // Sky gradient.
    double T = 0.5 * (Dir.Y + 1.0);
    return Vec3{0.15, 0.18, 0.3} * (1.0 - T) + Vec3{0.45, 0.55, 0.8} * T;
  }
  Ops += 4; // Shading arithmetic for one hit.
  const Sphere &Ball = *H.Object;
  Vec3 Point = Origin + Dir * H.T;
  Vec3 Normal = (Point - Ball.Center).normalised();
  Vec3 Color = Ambient * Ball.Color;

  Vec3 ToLight = (LightPos - Point).normalised();
  double Facing = Normal.dot(ToLight);
  if (Facing > 0.0) {
    // Shadow ray.
    Hit Blocker = closestHit(Point + Normal * 1e-4, ToLight, Ops);
    double LightDist2 = (LightPos - Point).lengthSquared();
    bool Lit = !Blocker.Object || Blocker.T * Blocker.T > LightDist2;
    if (Lit) {
      Color = Color + Ball.Color * LightColor * (Ball.Diffuse * Facing);
      Vec3 Reflected = Normal * (2.0 * Facing) - ToLight;
      double SpecDot = std::max(0.0, -Reflected.dot(Dir));
      Color = Color + LightColor * (Ball.Specular * std::pow(SpecDot, 16.0));
      Ops += 6;
    }
  }

  if (Depth > 0 && Ball.Reflect > 0.0) {
    Vec3 Bounce = Dir - Normal * (2.0 * Normal.dot(Dir));
    Vec3 Mirror =
        shade(Point + Normal * 1e-4, Bounce.normalised(), Depth - 1, Ops);
    Color = Color + Mirror * Ball.Reflect;
    Ops += 4;
  }
  return Color;
}

LineResult Scene::renderLine(int Y, int Width, int Height,
                             int MaxDepth) const {
  assert(Y >= 0 && Y < Height && "scan line out of frame");
  LineResult Line;
  Line.Rgb.resize(static_cast<size_t>(Width) * 3);
  double Aspect = static_cast<double>(Width) / Height;
  for (int X = 0; X < Width; ++X) {
    double U = (2.0 * (X + 0.5) / Width - 1.0) * Aspect;
    double V = 1.0 - 2.0 * (Y + 0.5) / Height;
    Vec3 Dir = Vec3{U, V, -2.0}.normalised();
    Vec3 Color = shade(CameraPos, Dir, MaxDepth, Line.Ops);
    auto Quantise = [](double C) {
      return static_cast<uint8_t>(std::clamp(C, 0.0, 1.0) * 255.0 + 0.5);
    };
    Line.Rgb[static_cast<size_t>(X) * 3 + 0] = Quantise(Color.X);
    Line.Rgb[static_cast<size_t>(X) * 3 + 1] = Quantise(Color.Y);
    Line.Rgb[static_cast<size_t>(X) * 3 + 2] = Quantise(Color.Z);
  }
  return Line;
}

RenderStats Scene::renderWhole(int Width, int Height, int MaxDepth) const {
  HostPool &Pool = HostPool::shared();
  std::vector<std::future<RenderStats>> Lines;
  Lines.reserve(static_cast<size_t>(Height));
  for (int Y = 0; Y < Height; ++Y)
    Lines.push_back(Pool.submit([this, Y, Width, Height, MaxDepth] {
      LineResult Line = renderLine(Y, Width, Height, MaxDepth);
      return RenderStats{Line.Ops, lineChecksum(Line.Rgb)};
    }));
  // The tasks read *this: let every one finish before a get() can throw.
  for (std::future<RenderStats> &Line : Lines)
    Line.wait();
  RenderStats Stats;
  for (std::future<RenderStats> &Line : Lines) {
    RenderStats One = Line.get();
    Stats.TotalOps += One.TotalOps;
    Stats.Checksum += One.Checksum;
  }
  return Stats;
}

uint64_t Scene::lineChecksum(const std::vector<uint8_t> &Rgb) {
  uint64_t Hash = 1469598103934665603ULL; // FNV-1a offset basis.
  for (uint8_t Byte : Rgb) {
    Hash ^= Byte;
    Hash *= 1099511628211ULL;
  }
  return Hash;
}

double parcs::apps::ray::calibrateNsPerOp(const Scene &S, int Width,
                                          int Height, double TargetSeconds) {
  RenderStats Stats = S.renderWhole(Width, Height);
  assert(Stats.TotalOps > 0 && "scene rendered no work");
  return TargetSeconds * 1e9 / static_cast<double>(Stats.TotalOps);
}
