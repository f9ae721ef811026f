#pragma once

/**
 * @file
 * Whole-file reading shared by the durable store, the model registry
 * and the tools.
 */

#include <string>

namespace sleuth::util {

/**
 * Read the file at `path` into *out in large blocks until EOF,
 * reserving its size up front when the file reports one. False when
 * the file cannot be opened or a read fails; each caller words its own
 * error.
 */
bool readFile(const std::string &path, std::string *out);

} // namespace sleuth::util
