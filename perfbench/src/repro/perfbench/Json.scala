package repro.perfbench

/** Minimal JSON writer: objects are `Seq[(String, Any)]` so keys keep
  * their order; non-finite numbers become null.
  */
object Json {
  type Obj = Seq[(String, Any)]

  def apply(v: Any): String = v match {
    case null | None             => "null"
    case Some(x)                 => apply(x)
    case b: Boolean              => b.toString
    case d: Double               => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                  => n.toString
    case n: Long                 => n.toString
    case s: String               => quote(s)
    case o: Seq[_] if isObj(o)   =>
      o.map { case (k: String, x) => s"${quote(k)}: ${apply(x)}" case _ => "" }.mkString("{", ", ", "}")
    case xs: Iterable[_]         => xs.map(apply).mkString("[", ", ", "]")
    case other                   => quote(other.toString)
  }

  private def isObj(o: Seq[_]): Boolean =
    o.nonEmpty && o.forall { case (_: String, _) => true case _ => false }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'              => sb ++= "\\\""
      case '\\'             => sb ++= "\\\\"
      case '\n'             => sb ++= "\\n"
      case '\t'             => sb ++= "\\t"
      case c if c < ' '     => sb ++= f"\\u${c.toInt}%04x"
      case c                => sb += c
    }
    (sb += '"').result()
  }
}
