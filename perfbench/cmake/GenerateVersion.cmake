# src/CMakeLists.txt runs ${CMAKE_SOURCE_DIR}/cmake/GenerateVersion.cmake
# with SOURCE_DIR=${CMAKE_SOURCE_DIR}. In the benchmark's build that
# directory is perfbench/, so this forwards to the repository's script
# with the repository root, and the probe carries the checkout's stamp.
get_filename_component(SOURCE_DIR "${SOURCE_DIR}/.." ABSOLUTE)
include("${SOURCE_DIR}/cmake/GenerateVersion.cmake")
