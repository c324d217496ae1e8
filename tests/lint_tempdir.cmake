# Fails when a file under tests/ other than test_scratch.h calls
# ::testing::TempDir(). A fixed name under TempDir() is shared by every
# process of `ctest -j` (and by every build tree on the machine), so two
# test cases can read each other's half-written files; ScratchPath and
# ScratchDir in test_scratch.h give each test process its own paths.
#
#   cmake -DTESTS_DIR=<repo>/tests -P lint_tempdir.cmake

file(GLOB_RECURSE sources "${TESTS_DIR}/*.cc" "${TESTS_DIR}/*.h")
set(offenders "")
foreach(source IN LISTS sources)
  get_filename_component(name "${source}" NAME)
  if(name STREQUAL "test_scratch.h")
    continue()
  endif()
  file(STRINGS "${source}" hits REGEX "TempDir[ \t]*\\(")
  if(hits)
    list(APPEND offenders "${source}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " joined)
  message(FATAL_ERROR
          "call ScratchPath/ScratchDir from tests/test_scratch.h instead of "
          "::testing::TempDir() in:\n  ${joined}")
endif()
