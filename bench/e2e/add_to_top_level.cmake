# Adds bench/e2e to a build of the repository root. run.py configures the
# root with
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_kgfd_INCLUDE=<this file>
#
# CMake includes this file right after the top-level project() call. The
# deferred include of CMakeLists.txt here runs once the top-level
# CMakeLists.txt has finished, in its scope, so bench_e2e gets its flags and
# its kgfd and kgfd_server targets. Once bench/CMakeLists.txt lists e2e
# itself, this file goes away.
set(KGFD_BENCH_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${KGFD_BENCH_E2E_DIR}/CMakeLists.txt)
