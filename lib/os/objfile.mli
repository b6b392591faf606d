(** Serialisation of executable images — a minimal ELF-like container so
    compiled (or rewritten) binaries can be written to disk and loaded
    back, e.g. by the [pssp compile] / [pssp exec] CLI commands.

    Format: magic ["PSSPEXE\x00"], a version word, then length-prefixed
    sections and the symbol table, all little-endian. *)

exception Format_error of string

val magic : string
val version : int

val write : Image.t -> bytes
val read : bytes -> Image.t
(** Raises {!Format_error} on anything malformed: bad magic, unknown
    version, truncation, inconsistent section lengths, or a text, data
    or (non-empty) extra section [\[base, base+len)] outside the image
    window [\[Layout.text_base, Layout.heap_base)] of the fixed guest
    layout. *)

val check_sections : Image.t -> unit
(** Raises {!Format_error} when a text, data or (non-empty) extra
    section [\[base, base+len)] lies outside the image window
    [\[Layout.text_base, Layout.heap_base)]. {!read} applies it to every
    file, {!Kernel.spawn} to every image, whether loaded or built in
    process. *)

val save : Image.t -> string -> unit
(** Write to a file path. *)

val load : string -> Image.t
(** Read from a file path. Raises {!Format_error} or [Sys_error]. *)
