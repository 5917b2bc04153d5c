#!/usr/bin/env bash
# Build and run the test suite under the default preset and under ASan.
#
#   scripts/check.sh            # default + asan
#   scripts/check.sh default    # just one preset
#   scripts/check.sh ubsan tsan
#
# Any argument must name a configure preset from CMakePresets.json.
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan)
fi

jobs=$(nproc 2>/dev/null || echo 2)

for preset in "${presets[@]}"; do
  echo "==> [$preset] configure"
  cmake --preset "$preset"
  echo "==> [$preset] build"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> [$preset] test"
  ctest --preset "$preset"
done

echo "All presets passed: ${presets[*]}"
