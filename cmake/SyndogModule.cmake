# syndog_add_module(<name> SOURCES <files...> [DEPS <targets...>])
#
# Declares one module library (syndog_<name> plus the syndog::<name> alias)
# with its public headers under include/. Centralizing the declaration keeps
# warning/sanitizer flags uniform and lets tooling enumerate the public
# headers of every module: each header is registered on the global
# SYNDOG_PUBLIC_HEADERS property, which the `lint` target feeds to
# tools/lint/syndog_lint.py for the self-containment check.
#
# The DEPS list is the module's *declared* layer position; the same DAG is
# mirrored in tools/lint/syndoglint/rules_layering.py (LAYER_DEPS) and
# DESIGN.md §3, and the linter fails the build if an #include crosses it or
# if the syndog:: targets listed here differ from the LAYER_DEPS entry.

define_property(GLOBAL PROPERTY SYNDOG_PUBLIC_HEADERS
  BRIEF_DOCS "All public syndog/ headers, for the lint self-containment check"
  FULL_DOCS "Absolute paths of every header under src/*/include/syndog/")

function(syndog_add_module name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  if(NOT ARG_SOURCES)
    message(FATAL_ERROR "syndog_add_module(${name}): SOURCES is required")
  endif()

  set(target syndog_${name})
  add_library(${target} ${ARG_SOURCES})
  target_include_directories(${target} PUBLIC
    ${CMAKE_CURRENT_SOURCE_DIR}/include)
  if(ARG_DEPS)
    target_link_libraries(${target} PUBLIC ${ARG_DEPS})
  endif()
  add_library(syndog::${name} ALIAS ${target})

  file(GLOB_RECURSE _headers CONFIGURE_DEPENDS
    ${CMAKE_CURRENT_SOURCE_DIR}/include/syndog/*.hpp)
  set_property(GLOBAL APPEND PROPERTY SYNDOG_PUBLIC_HEADERS ${_headers})
endfunction()
