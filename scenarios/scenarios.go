// Package scenarios embeds the shipped moon-scenario/v1 files. They are the
// built-in registry: internal/scenario.Builtins parses this directory, so a
// file here is a named scenario and there is no second copy to keep equal.
package scenarios

import "embed"

// Files holds every shipped spec as <name>.json.
//
//go:embed *.json
var Files embed.FS
