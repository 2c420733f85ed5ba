//===- serial/Archive.cpp -------------------------------------------------===//
//
// Part of the ParC# reproduction library.
//
//===----------------------------------------------------------------------===//

#include "serial/Archive.h"

void parcs::serial::detail::appendBytes(Bytes &Out, const uint8_t *Data,
                                        size_t Size) {
  Out.insert(Out.end(), Data, Data + Size);
}

void parcs::serial::detail::copyBytes(void *Dst, const uint8_t *Src,
                                      size_t Size) {
  if (Size != 0) // memcpy's pointers must be non-null even for no bytes.
    std::memcpy(Dst, Src, Size);
}
