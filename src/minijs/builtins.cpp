#include "minijs/builtins.h"

#include <cmath>

#include "json/parse.h"
#include "minijs/interpreter.h"
#include "util/strings.h"

namespace edgstr::minijs {

namespace {

JsValue native(const std::string& name,
               std::function<JsValue(Interpreter&, std::vector<JsValue>&)> fn) {
  return JsValue(std::make_shared<NativeFunction>(NativeFunction{name, std::move(fn)}));
}

JsValue require_arg(std::vector<JsValue>& args, std::size_t i, const std::string& fn) {
  if (i >= args.size()) throw JsError(fn + ": missing argument #" + std::to_string(i + 1));
  return args[i];
}

// A bind parameter as a cell: the value SqlValue::from_json(p.to_json())
// gives, without building the JSON. Arrays, objects and blobs take that
// route anyway, so they fail exactly as before.
sqldb::SqlValue to_sql(const JsValue& p) {
  switch (p.type()) {
    case JsValue::Type::kNull:
    case JsValue::Type::kClosure:
    case JsValue::Type::kNative: return sqldb::SqlValue();
    case JsValue::Type::kBool: return sqldb::SqlValue(static_cast<std::int64_t>(p.as_bool()));
    case JsValue::Type::kNumber: return sqldb::SqlValue::from_number(p.as_number());
    case JsValue::Type::kString: return sqldb::SqlValue(p.as_string());
    default: return sqldb::SqlValue::from_json(p.to_json());
  }
}

// A result cell as a JS value: the value JsValue::from_json(cell.to_json())
// gives, without building the JSON. Text moves out of the result set.
JsValue to_js(sqldb::SqlValue& cell) {
  if (cell.is_null()) return JsValue();
  if (cell.is_int()) return JsValue(static_cast<double>(cell.as_int()));
  if (cell.is_double()) return JsValue(cell.as_double());
  return JsValue(cell.take_text());
}

// db.query(sql [, params]) — SELECT returns an array of row objects,
// mutations return the affected-row count. The params array binds `?`s.
JsValue db_query(Interpreter& interp, std::vector<JsValue>& args) {
  if (!interp.database()) throw JsError("db.query: no database bound to this service");
  const std::string sql = require_arg(args, 0, "db.query").as_string();
  std::vector<sqldb::SqlValue> params;
  if (args.size() > 1 && args[1].is_array()) {
    params.reserve(args[1].as_array()->size());
    for (const JsValue& p : *args[1].as_array()) params.push_back(to_sql(p));
  }
  sqldb::ResultSet result = interp.database()->execute(sql, params);
  if (!result.columns.empty() || !result.rows.empty()) {
    // Each column name is interned once per query, not once per cell.
    std::vector<util::Symbol> columns;
    columns.reserve(result.columns.size());
    for (const std::string& name : result.columns) columns.push_back(util::intern(name));
    auto rows = std::make_shared<JsArray>();
    rows->reserve(result.rows.size());
    for (auto& row : result.rows) {
      auto obj = std::make_shared<JsObject>();
      obj->reserve(columns.size());
      for (std::size_t i = 0; i < columns.size(); ++i) obj->set(columns[i], to_js(row[i]));
      rows->emplace_back(std::move(obj));
    }
    return JsValue(std::move(rows));
  }
  return JsValue(static_cast<double>(result.affected));
}

JsValue make_db(Interpreter&) {
  auto db = std::make_shared<JsObject>();
  db->set("query", native("db.query", db_query));
  db->set("exec", native("db.exec", db_query));
  return JsValue(std::move(db));
}

JsValue make_fs(Interpreter&) {
  auto fs = std::make_shared<JsObject>();
  fs->set("readFile", native("fs.readFile", [](Interpreter& interp, std::vector<JsValue>& args) {
            if (!interp.filesystem()) throw JsError("fs: no filesystem bound");
            return JsValue(
                interp.filesystem()->read_text(require_arg(args, 0, "fs.readFile").as_string()));
          }));
  fs->set("writeFile", native("fs.writeFile", [](Interpreter& interp, std::vector<JsValue>& args) {
            if (!interp.filesystem()) throw JsError("fs: no filesystem bound");
            const JsValue path = require_arg(args, 0, "fs.writeFile");
            const JsValue data = require_arg(args, 1, "fs.writeFile");
            // A string is stored as its own body; anything else as its display text.
            if (data.is_string()) {
              interp.filesystem()->write(path.as_string(), data.as_text());
            } else {
              interp.filesystem()->write(path.as_string(), data.to_display());
            }
            return JsValue();
          }));
  fs->set("appendFile", native("fs.appendFile", [](Interpreter& interp, std::vector<JsValue>& args) {
            if (!interp.filesystem()) throw JsError("fs: no filesystem bound");
            interp.filesystem()->append(require_arg(args, 0, "fs.appendFile").as_string(),
                                        require_arg(args, 1, "fs.appendFile").to_display());
            return JsValue();
          }));
  fs->set("exists", native("fs.exists", [](Interpreter& interp, std::vector<JsValue>& args) {
            if (!interp.filesystem()) throw JsError("fs: no filesystem bound");
            return JsValue(interp.filesystem()->exists(require_arg(args, 0, "fs.exists").as_string()));
          }));
  fs->set("unlink", native("fs.unlink", [](Interpreter& interp, std::vector<JsValue>& args) {
            if (!interp.filesystem()) throw JsError("fs: no filesystem bound");
            return JsValue(interp.filesystem()->remove(require_arg(args, 0, "fs.unlink").as_string()));
          }));
  return JsValue(std::move(fs));
}

JsValue make_json() {
  auto json_obj = std::make_shared<JsObject>();
  json_obj->set("stringify", native("JSON.stringify", [](Interpreter&, std::vector<JsValue>& args) {
                  return JsValue(require_arg(args, 0, "JSON.stringify").to_json().dump());
                }));
  json_obj->set("parse", native("JSON.parse", [](Interpreter&, std::vector<JsValue>& args) {
                  const std::string text = require_arg(args, 0, "JSON.parse").as_string();
                  auto parsed = json::try_parse(text);
                  if (!parsed) throw JsError("JSON.parse: invalid JSON");
                  return JsValue::from_json(*parsed);
                }));
  return JsValue(std::move(json_obj));
}

JsValue make_math() {
  auto math = std::make_shared<JsObject>();
  auto unary = [](const std::string& name, double (*fn)(double)) {
    return native("Math." + name, [fn, name](Interpreter&, std::vector<JsValue>& args) {
      return JsValue(fn(require_arg(args, 0, "Math." + name).as_number()));
    });
  };
  math->set("floor", unary("floor", std::floor));
  math->set("ceil", unary("ceil", std::ceil));
  math->set("round", unary("round", std::round));
  math->set("abs", unary("abs", std::fabs));
  math->set("sqrt", unary("sqrt", std::sqrt));
  math->set("log", unary("log", std::log));
  math->set("exp", unary("exp", std::exp));
  math->set("pow", native("Math.pow", [](Interpreter&, std::vector<JsValue>& args) {
              return JsValue(std::pow(require_arg(args, 0, "Math.pow").as_number(),
                                      require_arg(args, 1, "Math.pow").as_number()));
            }));
  math->set("min", native("Math.min", [](Interpreter&, std::vector<JsValue>& args) {
              double best = std::numeric_limits<double>::infinity();
              for (const JsValue& v : args) best = std::min(best, v.as_number());
              return JsValue(best);
            }));
  math->set("max", native("Math.max", [](Interpreter&, std::vector<JsValue>& args) {
              double best = -std::numeric_limits<double>::infinity();
              for (const JsValue& v : args) best = std::max(best, v.as_number());
              return JsValue(best);
            }));
  math->set("random", native("Math.random", [](Interpreter& interp, std::vector<JsValue>&) {
              return JsValue(interp.rng().next_double());  // seeded: deterministic
            }));
  return JsValue(std::move(math));
}

JsValue make_console() {
  auto console = std::make_shared<JsObject>();
  console->set("log", native("console.log", [](Interpreter& interp, std::vector<JsValue>& args) {
                 std::string line;
                 for (std::size_t i = 0; i < args.size(); ++i) {
                   if (i) line += " ";
                   line += args[i].to_display();
                 }
                 interp.append_console(std::move(line));
                 return JsValue();
               }));
  console->set("error", console->get("log"));
  return JsValue(std::move(console));
}

JsValue make_app(Interpreter&) {
  auto app = std::make_shared<JsObject>();
  auto route_fn = [](http::Verb verb, const std::string& name) {
    return native("app." + name, [verb, name](Interpreter& interp, std::vector<JsValue>& args) {
      const std::string path = require_arg(args, 0, "app." + name).as_string();
      interp.register_route(verb, path, require_arg(args, 1, "app." + name));
      return JsValue();
    });
  };
  app->set("get", route_fn(http::Verb::kGet, "get"));
  app->set("post", route_fn(http::Verb::kPost, "post"));
  app->set("put", route_fn(http::Verb::kPut, "put"));
  app->set("delete", route_fn(http::Verb::kDelete, "delete"));
  app->set("patch", route_fn(http::Verb::kPatch, "patch"));
  app->set("listen", native("app.listen", [](Interpreter&, std::vector<JsValue>&) {
             return JsValue();  // no-op in the simulator
           }));
  return JsValue(std::move(app));
}

}  // namespace

void install_builtins(Interpreter& interp, Environment& env) {
  env.define("app", make_app(interp));
  env.define("db", make_db(interp));
  env.define("fs", make_fs(interp));
  env.define("JSON", make_json());
  env.define("Math", make_math());
  env.define("console", make_console());

  // compute(units): simulated CPU-bound work, the TensorFlow-inference
  // stand-in. The accrued units convert to seconds on a per-device basis.
  env.define("compute", native("compute", [](Interpreter& interp, std::vector<JsValue>& args) {
               interp.add_compute(require_arg(args, 0, "compute").as_number());
               return JsValue();
             }));

  // blob(size [, seed]): opaque payload with a deterministic fingerprint.
  env.define("blob", native("blob", [](Interpreter&, std::vector<JsValue>& args) {
               Blob b;
               b.size = static_cast<std::uint64_t>(require_arg(args, 0, "blob").as_number());
               const std::uint64_t seed =
                   args.size() > 1 ? static_cast<std::uint64_t>(args[1].as_number()) : 1;
               b.fingerprint = (b.size * 0x9e3779b97f4a7c15ULL) ^ (seed * 0xff51afd7ed558ccdULL);
               return JsValue(b);
             }));

  // blobHash(b [, salt]): deterministic digest of an opaque payload. The
  // subject apps derive "analysis results" from it so outputs depend on
  // inputs, which the fuzz-tracking stage relies on.
  env.define("blobHash", native("blobHash", [](Interpreter&, std::vector<JsValue>& args) {
               const JsValue& v = require_arg(args, 0, "blobHash");
               std::uint64_t h;
               if (v.is_blob()) {
                 h = v.as_blob().fingerprint ^ (v.as_blob().size * 0x2545f4914f6cdd1dULL);
               } else {
                 h = util::fnv1a(v.to_display());
               }
               if (args.size() > 1) h ^= util::fnv1a(args[1].to_display()) * 0x100000001b3ULL;
               return JsValue(static_cast<double>(h % 1000000007ULL));
             }));

  // pad(pattern, bytes): the pattern repeated/truncated to exactly `bytes`
  // characters. Lets subject apps materialize realistically-sized model
  // files at init without megabyte string literals in their source.
  env.define("pad", native("pad", [](Interpreter&, std::vector<JsValue>& args) {
               const std::string pattern = require_arg(args, 0, "pad").as_string();
               const auto size =
                   static_cast<std::size_t>(require_arg(args, 1, "pad").as_number());
               if (pattern.empty()) throw JsError("pad: empty pattern");
               std::string out;
               out.reserve(size);
               while (out.size() < size) {
                 out.append(pattern, 0, std::min(pattern.size(), size - out.size()));
               }
               return JsValue(std::move(out));
             }));

  env.define("len", native("len", [](Interpreter&, std::vector<JsValue>& args) {
               const JsValue& v = require_arg(args, 0, "len");
               if (v.is_array()) return JsValue(static_cast<double>(v.as_array()->size()));
               if (v.is_string()) return JsValue(static_cast<double>(v.as_string().size()));
               if (v.is_object()) return JsValue(static_cast<double>(v.as_object()->size()));
               return JsValue(0.0);
             }));
  env.define("str", native("str", [](Interpreter&, std::vector<JsValue>& args) {
               return JsValue(require_arg(args, 0, "str").to_display());
             }));
  env.define("num", native("num", [](Interpreter&, std::vector<JsValue>& args) {
               const JsValue& v = require_arg(args, 0, "num");
               if (v.is_number()) return v;
               if (v.is_string()) return JsValue(std::strtod(v.as_string().c_str(), nullptr));
               if (v.is_bool()) return JsValue(v.as_bool() ? 1.0 : 0.0);
               return JsValue(0.0);
             }));
  env.define("keys", native("keys", [](Interpreter&, std::vector<JsValue>& args) {
               const JsValue& v = require_arg(args, 0, "keys");
               auto out = std::make_shared<JsArray>();
               if (v.is_object()) {
                 for (const std::string& k : v.as_object()->keys()) out->push_back(JsValue(k));
               }
               return JsValue(std::move(out));
             }));
  env.define("parseInt", native("parseInt", [](Interpreter&, std::vector<JsValue>& args) {
               const JsValue& v = require_arg(args, 0, "parseInt");
               if (v.is_number()) return JsValue(std::floor(v.as_number()));
               return JsValue(std::floor(std::strtod(v.as_string().c_str(), nullptr)));
             }));
  env.define("parseFloat", native("parseFloat", [](Interpreter&, std::vector<JsValue>& args) {
               const JsValue& v = require_arg(args, 0, "parseFloat");
               if (v.is_number()) return v;
               return JsValue(std::strtod(v.as_string().c_str(), nullptr));
             }));
}

}  // namespace edgstr::minijs
